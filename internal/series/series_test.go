package series

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"thirstyflops/internal/units"
)

func sample() Series {
	s, err := From(1.5,
		[]units.KWh{10, 20, 30},
		[]units.LPerKWh{1, 2, 3},
		[]units.LPerKWh{4, 5, 6},
		[]units.GCO2PerKWh{100, 200, 300})
	if err != nil {
		panic(err)
	}
	return s
}

func TestFromValidatesAlignment(t *testing.T) {
	if _, err := From(1.2, make([]units.KWh, 3), make([]units.LPerKWh, 2),
		make([]units.LPerKWh, 3), make([]units.GCO2PerKWh, 3)); err == nil {
		t.Fatal("misaligned channels accepted")
	}
	if _, err := From(0.9, nil, nil, nil, nil); err == nil {
		t.Fatal("PUE < 1 accepted")
	}
	if _, err := New(1.1, -1); err == nil {
		t.Fatal("negative length accepted")
	}
}

func TestWaterIntensity(t *testing.T) {
	s := sample()
	// WI(0) = 1 + 1.5*4 = 7.
	if got := float64(s.WaterIntensityAt(0)); math.Abs(got-7) > 1e-12 {
		t.Errorf("WI(0) = %v, want 7", got)
	}
	wi := s.WaterIntensity()
	if len(wi) != s.Len() || wi[0] != s.WaterIntensityAt(0) {
		t.Errorf("materialized WI mismatch: %v", wi)
	}
}

func TestTotals(t *testing.T) {
	s := sample()
	tot := s.Totals()
	if float64(tot.Energy) != 60 {
		t.Errorf("energy = %v, want 60", tot.Energy)
	}
	// Direct = 10*1 + 20*2 + 30*3 = 140.
	if math.Abs(float64(tot.Direct)-140) > 1e-9 {
		t.Errorf("direct = %v, want 140", tot.Direct)
	}
	// Indirect = 1.5*(10*4 + 20*5 + 30*6) = 1.5*320 = 480.
	if math.Abs(float64(tot.Indirect)-480) > 1e-9 {
		t.Errorf("indirect = %v, want 480", tot.Indirect)
	}
	if tot.Operational() != tot.Direct+tot.Indirect {
		t.Error("operational != direct + indirect")
	}
	// Carbon = 1.5*(10*100 + 20*200 + 30*300) = 1.5*14000 = 21000.
	if math.Abs(float64(tot.Carbon)-21000) > 1e-9 {
		t.Errorf("carbon = %v, want 21000", tot.Carbon)
	}
	// Per-hour accessors agree with the integral.
	var w, c float64
	for h := 0; h < s.Len(); h++ {
		w += float64(s.WaterAt(h))
		c += float64(s.CarbonAt(h))
	}
	if math.Abs(w-float64(tot.Operational())) > 1e-9 || math.Abs(c-float64(tot.Carbon)) > 1e-9 {
		t.Error("per-hour accessors disagree with Totals")
	}
	// The means summed in the same pass equal MeanWaterIntensity's.
	d, i, _ := s.MeanWaterIntensity()
	if tot.MeanDirect != d || tot.MeanIndirect != i {
		t.Errorf("Totals means %v, %v; MeanWaterIntensity %v, %v", tot.MeanDirect, tot.MeanIndirect, d, i)
	}
	if z := (Series{PUE: 1}).Totals(); z.MeanDirect != 0 || z.MeanIndirect != 0 {
		t.Errorf("empty series means %v, %v", z.MeanDirect, z.MeanIndirect)
	}
}

func TestMeans(t *testing.T) {
	s := sample()
	d, i, tot := s.MeanWaterIntensity()
	if math.Abs(float64(d)-2) > 1e-12 {
		t.Errorf("mean direct WI = %v, want 2", d)
	}
	if math.Abs(float64(i)-7.5) > 1e-12 {
		t.Errorf("mean indirect WI = %v, want 7.5", i)
	}
	if tot != d+i {
		t.Error("total != direct + indirect")
	}
	if math.Abs(float64(s.MeanCarbonIntensity())-200) > 1e-12 {
		t.Errorf("mean CI = %v, want 200", s.MeanCarbonIntensity())
	}
}

func TestSliceAndClone(t *testing.T) {
	s := sample()
	win, err := s.Slice(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if win.Len() != 2 || win.Energy[0] != 20 || win.Carbon[1] != 300 {
		t.Errorf("window wrong: %+v", win)
	}
	if _, err := s.Slice(2, 5); err == nil {
		t.Error("out-of-range window accepted")
	}
	c := s.Clone()
	if !c.Equal(s) {
		t.Error("clone differs from original")
	}
	c.Energy[0] = 999
	if s.Energy[0] == 999 {
		t.Error("clone shares backing array")
	}
	if c.Equal(s) {
		t.Error("Equal missed a mutated channel")
	}
}

func TestFromIntensities(t *testing.T) {
	s, err := FromIntensities(1,
		[]units.LPerKWh{1, 5}, []units.LPerKWh{0, 0}, []units.GCO2PerKWh{9, 9})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || s.Energy[0] != 0 {
		t.Errorf("intensity-only series wrong: %+v", s)
	}
}

// goldenCSV is the SHA-256 of sample's WriteCSV output. It was recorded
// while a CSV reader still round-tripped the writer, so it pins the
// format that reader accepted byte for byte.
const goldenCSV = "0f49b209a1806dc8fb03e984e6041c9822cced2fea16b567d31177bdec8512cd"

func TestWriteCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenCSV {
		t.Errorf("WriteCSV digest %s, want %s\n%s", got, goldenCSV, buf.String())
	}
}

// TestCSVRoundTrip parses WriteCSV's rows back and checks that every
// channel, and the derived water intensity, lands in its own column at
// the printed precision.
func TestCSVRoundTrip(t *testing.T) {
	s := randomSeries(500, 3)
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if want := fmt.Sprintf("# pue=%.4f", float64(s.PUE)); lines[0] != want {
		t.Errorf("header %q, want %q", lines[0], want)
	}
	rows := lines[2:]
	if len(rows) != s.Len() {
		t.Fatalf("%d rows, want %d", len(rows), s.Len())
	}
	for h, row := range rows {
		want := []float64{float64(h), float64(s.Energy[h]), float64(s.WUE[h]),
			float64(s.EWF[h]), float64(s.WaterIntensityAt(h)), float64(s.Carbon[h])}
		cols := strings.Split(row, ",")
		if len(cols) != len(want) {
			t.Fatalf("hour %d: row %q has %d columns", h, row, len(cols))
		}
		for i, col := range cols {
			v, err := strconv.ParseFloat(col, 64)
			if err != nil || math.Abs(v-want[i]) > 5e-3 {
				t.Errorf("hour %d column %d: %q, want %v", h, i, col, want[i])
			}
		}
	}
}

func TestCumulativeWindowSums(t *testing.T) {
	s, err := From(1.5,
		[]units.KWh{1, 1, 1, 1},
		[]units.LPerKWh{1, 2, 3, 4},
		[]units.LPerKWh{2, 2, 2, 2},
		[]units.GCO2PerKWh{10, 20, 30, 40})
	if err != nil {
		t.Fatal(err)
	}
	c := s.Cumulative()
	if c.Len() != 4 {
		t.Fatalf("Len = %d, want 4", c.Len())
	}
	// WI(t) = WUE + 1.5·2 = WUE + 3 → {4, 5, 6, 7}.
	if got := c.WaterIntensitySum(0, 4); got != 22 {
		t.Errorf("full water sum = %v, want 22", got)
	}
	if got := c.WaterIntensitySum(1, 3); got != 11 {
		t.Errorf("window water sum = %v, want 11", got)
	}
	if got := c.CarbonSum(1, 4); got != 90 {
		t.Errorf("carbon window = %v, want 90", got)
	}
	if got := c.WaterIntensitySum(2, 2); got != 0 {
		t.Errorf("empty window = %v, want 0", got)
	}
}

func TestCumulativeMatchesDirectSums(t *testing.T) {
	s, err := New(1.3, 200)
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < s.Len(); h++ {
		s.Energy[h] = units.KWh(1 + h%5)
		s.WUE[h] = units.LPerKWh(0.05 + 0.37*float64(h%17))
		s.EWF[h] = units.LPerKWh(1.1 + 0.21*float64(h%11))
		s.Carbon[h] = units.GCO2PerKWh(200 + 13*float64(h%23))
	}
	c := s.Cumulative()
	for _, w := range [][2]int{{0, 200}, {13, 14}, {50, 150}, {199, 200}} {
		var wi, ci float64
		for h := w[0]; h < w[1]; h++ {
			wi += float64(s.WaterIntensityAt(h))
			ci += float64(s.Carbon[h])
		}
		if got := c.WaterIntensitySum(w[0], w[1]); math.Abs(got-wi) > 1e-9*math.Abs(wi)+1e-12 {
			t.Errorf("window %v: water %v vs direct %v", w, got, wi)
		}
		if got := c.CarbonSum(w[0], w[1]); math.Abs(got-ci) > 1e-9*math.Abs(ci)+1e-12 {
			t.Errorf("window %v: carbon %v vs direct %v", w, got, ci)
		}
	}
}

// randomSeries is an n-hour series of pseudo-random channels.
func randomSeries(n int, seed int64) Series {
	rng := rand.New(rand.NewSource(seed))
	s, err := New(units.PUE(1+rng.Float64()), n)
	if err != nil {
		panic(err)
	}
	for h := 0; h < n; h++ {
		s.Energy[h] = units.KWh(1e4 * rng.Float64())
		s.WUE[h] = units.LPerKWh(3 * rng.Float64())
		s.EWF[h] = units.LPerKWh(5 * rng.Float64())
		s.Carbon[h] = units.GCO2PerKWh(800 * rng.Float64())
	}
	return s
}

// TestResumeMatchesSplicedTotals resumes the fold at every first hour
// of a random window with gaps, including windows that start before hour
// 0 or reach past the end, and compares it with Totals of an explicit
// splice, bit for bit. 1,000 hours leaves a partial last day.
func TestResumeMatchesSplicedTotals(t *testing.T) {
	const n = 1000
	s := randomSeries(n, 7)
	c := s.Checkpoints()
	if len(c) != (n+checkpointHours-1)/checkpointHours || c[0] != (Fold{}) {
		t.Fatalf("%d checkpoints starting at %+v", len(c), c[0])
	}
	if full := c.Resume(s, 0, nil, nil).Totals(); full != s.Totals().withoutMeans() {
		t.Fatalf("resumed without a window %+v, Totals %+v", full, s.Totals())
	}
	rng := rand.New(rand.NewSource(8))
	for lo := -30; lo <= n+5; lo++ {
		size := rng.Intn(80)
		energy := make([]units.KWh, size)
		observed := make([]bool, size)
		for i := range energy {
			energy[i] = units.KWh(1e4 * rng.Float64())
			observed[i] = rng.Intn(4) != 0
		}
		spliced := s.Clone()
		for i, ok := range observed {
			if h := lo + i; ok && h >= 0 && h < n {
				spliced.Energy[h] = energy[i]
			}
		}
		got := c.Resume(s, lo, energy, observed)
		want := spliced.Totals()
		for _, pair := range [][2]float64{
			{got.Energy, float64(want.Energy)}, {got.Direct, float64(want.Direct)},
			{got.Indirect, float64(want.Indirect)}, {got.Carbon, float64(want.Carbon)},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("lo %d, %d hours: resumed %+v, spliced Totals %+v", lo, size, got, want)
			}
		}
	}
}

// withoutMeans drops the annual-mean intensities, which a Fold does not
// carry.
func (t Totals) withoutMeans() Totals {
	t.MeanDirect, t.MeanIndirect = 0, 0
	return t
}
