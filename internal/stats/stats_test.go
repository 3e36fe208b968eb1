package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMinMaxSumMean(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	if got := Min(xs); got != 1 {
		t.Errorf("Min = %v, want 1", got)
	}
	if got := Max(xs); got != 9 {
		t.Errorf("Max = %v, want 9", got)
	}
	if got := Sum(xs); got != 31 {
		t.Errorf("Sum = %v, want 31", got)
	}
	if got := Mean(xs); math.Abs(got-3.875) > 1e-12 {
		t.Errorf("Mean = %v, want 3.875", got)
	}
}

func TestMedianQuantile(t *testing.T) {
	if got := Median([]float64{1, 2, 3, 4, 5}); got != 3 {
		t.Errorf("odd Median = %v, want 3", got)
	}
	if got := Median([]float64{1, 2, 3, 4}); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("even Median = %v, want 2.5", got)
	}
	xs := []float64{10, 20, 30, 40, 50}
	if got := Quantile(xs, 0); got != 10 {
		t.Errorf("q0 = %v, want 10", got)
	}
	if got := Quantile(xs, 1); got != 50 {
		t.Errorf("q1 = %v, want 50", got)
	}
	if got := Quantile(xs, 0.25); got != 20 {
		t.Errorf("q0.25 = %v, want 20", got)
	}
	if got := Quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("single-element quantile = %v, want 7", got)
	}
}

func TestQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range quantile")
		}
	}()
	Quantile([]float64{1}, 1.5)
}

func TestEmptyPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"Min":    func() { Min(nil) },
		"Max":    func() { Max(nil) },
		"Mean":   func() { Mean(nil) },
		"ArgMin": func() { ArgMin(nil) },
		"ArgMax": func() { ArgMax(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(nil) should panic", name)
				}
			}()
			f()
		}()
	}
}

func TestNormalize(t *testing.T) {
	got := Normalize([]float64{10, 15, 20})
	want := []float64{0, 0.5, 1}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("Normalize[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Constant series maps to zeros.
	for _, v := range Normalize([]float64{4, 4, 4}) {
		if v != 0 {
			t.Errorf("constant Normalize = %v, want 0", v)
		}
	}
	if Normalize(nil) != nil {
		t.Error("Normalize(nil) should be nil")
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	if got := Pearson(xs, ys); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect corr = %v, want 1", got)
	}
	zs := []float64{10, 8, 6, 4, 2}
	if got := Pearson(xs, zs); math.Abs(got+1) > 1e-12 {
		t.Errorf("perfect anticorr = %v, want -1", got)
	}
}

func TestArgMinArgMax(t *testing.T) {
	xs := []float64{5, 1, 9, 1, 9}
	if got := ArgMin(xs); got != 1 {
		t.Errorf("ArgMin = %v, want 1 (first tie)", got)
	}
	if got := ArgMax(xs); got != 2 {
		t.Errorf("ArgMax = %v, want 2 (first tie)", got)
	}
}

func TestRanks(t *testing.T) {
	xs := []float64{30, 10, 20}
	got := Ranks(xs)
	want := []int{3, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Ranks[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestMonthlyMeansCalendarYear(t *testing.T) {
	hourly := make([]float64, HoursPerYear)
	for i := range hourly {
		hourly[i] = 1
	}
	for _, m := range MonthlyMeans(hourly) {
		if math.Abs(m-1) > 1e-12 {
			t.Errorf("constant year mean = %v, want 1", m)
		}
	}
	// January-only signal: only month 0 is nonzero.
	hourly2 := make([]float64, HoursPerYear)
	for i := 0; i < 744; i++ {
		hourly2[i] = 2
	}
	ms := MonthlyMeans(hourly2)
	if math.Abs(ms[0]-2) > 1e-12 {
		t.Errorf("January mean = %v, want 2", ms[0])
	}
	for m := 1; m < 12; m++ {
		if ms[m] != 0 {
			t.Errorf("month %d mean = %v, want 0", m, ms[m])
		}
	}
}

func TestMonthlyMeansIrregularLength(t *testing.T) {
	got := MonthlyMeans([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	if len(got) != 12 {
		t.Fatalf("len = %d, want 12", len(got))
	}
	for i, v := range got {
		if v != float64(i+1) {
			t.Errorf("chunked mean[%d] = %v, want %v", i, v, i+1)
		}
	}
	if MonthlyMeans(nil) != nil {
		t.Error("MonthlyMeans(nil) should be nil")
	}
}

func TestClampLerp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp misbehaves")
	}
}

// --- RNG tests ---

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds should give different streams")
	}
}

// TestSkipNormKeepsStream checks that skipping a normal draw leaves the
// stream where drawing it would.
func TestSkipNormKeepsStream(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, math.MaxUint64} {
		drawn, skipped := NewRNG(seed), NewRNG(seed)
		for i := 0; i < 100; i++ {
			drawn.Norm()
			skipped.SkipNorm()
			if a, b := drawn.Uint64(), skipped.Uint64(); a != b {
				t.Fatalf("seed %d draw %d: stream after SkipNorm is %d, after Norm %d", seed, i, b, a)
			}
		}
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed must not produce a stuck stream")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestRNGRangeAndIntn(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		n := r.Intn(13)
		if n < 0 || n >= 13 {
			t.Fatalf("Intn out of bounds: %v", n)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(99)
	n := 50000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Errorf("Norm mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("Norm variance = %v, want ~1", variance)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(123)
	n := 50000
	var sum float64
	for i := 0; i < n; i++ {
		v := r.Exp(2)
		if v < 0 {
			t.Fatal("Exp must be non-negative")
		}
		sum += v
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.02 {
		t.Errorf("Exp(2) mean = %v, want ~0.5", mean)
	}
}

func TestRNGLogNormalPositive(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 1000; i++ {
		if r.LogNormal(0, 1) <= 0 {
			t.Fatal("LogNormal must be positive")
		}
	}
}

// Property: Normalize output is always within [0,1] and hits both ends for
// non-constant input.
func TestNormalizeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 1e9))
			}
		}
		if len(xs) < 2 {
			return true
		}
		out := Normalize(xs)
		lo, hi := Min(out), Max(out)
		if lo < 0 || hi > 1 {
			return false
		}
		if Min(xs) != Max(xs) && (lo != 0 || hi != 1) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: quantiles are monotone in q.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		a := math.Mod(math.Abs(q1), 1)
		b := math.Mod(math.Abs(q2), 1)
		if a > b {
			a, b = b, a
		}
		return Quantile(xs, a) <= Quantile(xs, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: ranks are a permutation of 1..n.
func TestRanksPermutationProperty(t *testing.T) {
	f := func(xs []float64) bool {
		for i, v := range xs {
			if math.IsNaN(v) {
				xs[i] = 0
			}
		}
		r := Ranks(xs)
		seen := make([]bool, len(r)+1)
		for _, v := range r {
			if v < 1 || v > len(r) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOrderMatchesComparisonSort(t *testing.T) {
	// The bucket path (n >= 64) must agree with the reference sort on
	// smooth data, adversarial skew, duplicates, and non-finite values.
	cases := map[string][]float64{
		"smooth":  make([]float64, 500),
		"skewed":  make([]float64, 500),
		"ties":    make([]float64, 500),
		"nan-inf": make([]float64, 100),
	}
	for i := range cases["smooth"] {
		cases["smooth"][i] = math.Sin(float64(i)/9) + float64(i%13)/7
	}
	for i := range cases["skewed"] {
		cases["skewed"][i] = math.Exp(float64(i) / 25) // heavy tail
	}
	for i := range cases["ties"] {
		cases["ties"][i] = float64(i % 5)
	}
	for i := range cases["nan-inf"] {
		cases["nan-inf"][i] = float64(i)
	}
	cases["nan-inf"][17] = math.NaN()
	cases["nan-inf"][42] = math.Inf(1)
	cases["nan-inf"][77] = math.Inf(-1)
	// One lone NaN among otherwise well-spread finite values: lo/hi and
	// the bucket scale stay valid, so only the NaN sum guard forces the
	// fallback — int(NaN) is implementation-defined (0 on arm64) and
	// must never pick a bucket.
	cases["nan-only"] = make([]float64, 500)
	for i := range cases["nan-only"] {
		cases["nan-only"][i] = float64(i % 97)
	}
	cases["nan-only"][123] = math.NaN()

	for name, xs := range cases {
		got := Ranks(xs)
		// Reference: stable selection of ascending order by (value, index).
		n := len(xs)
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
		want := make([]int, n)
		for r, i := range idx {
			want[i] = r + 1
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: rank[%d] = %d, want %d", name, i, got[i], want[i])
			}
		}
	}
}

func TestRanksLargeInputOrderAgreement(t *testing.T) {
	rng := NewRNG(99)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormMeanStd(0, 10)
	}
	got := Ranks(xs)
	seen := make([]bool, len(xs)+1)
	for _, r := range got {
		if r < 1 || r > len(xs) || seen[r] {
			t.Fatalf("ranks are not a permutation: %d", r)
		}
		seen[r] = true
	}
	// Rank order must agree with value order.
	for i := range xs {
		for j := i + 1; j < len(xs) && j < i+5; j++ {
			if xs[i] < xs[j] && got[i] > got[j] {
				t.Fatalf("rank inversion between %d and %d", i, j)
			}
		}
	}
}
