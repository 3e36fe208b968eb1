// Package stats provides the small numerical toolkit ThirstyFLOPS is built
// on: descriptive statistics, min-max normalization, correlation, quantiles,
// time-series aggregation helpers, and a deterministic random generator.
//
// Everything here operates on plain []float64 so the domain packages can
// stay focused on modeling, and depends on nothing but the standard
// library, except the SeasonCos tables, which are memoized in
// internal/cache.
package stats

import (
	"math"
	"slices"
	"sort"
)

// Min returns the smallest element of xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	mustNonEmpty(xs)
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	mustNonEmpty(xs)
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs (0 for an empty slice).
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs. It panics on an empty slice.
func Mean(xs []float64) float64 {
	mustNonEmpty(xs)
	return Sum(xs) / float64(len(xs))
}

// Median returns the median of xs. It panics on an empty slice.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It panics on an empty slice or an
// out-of-range q.
func Quantile(xs []float64, q float64) float64 {
	mustNonEmpty(xs)
	if q < 0 || q > 1 {
		panic("stats: quantile out of range")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Normalize rescales xs to [0, 1] with min-max scaling, as used for the
// paper's Fig. 11/12 comparisons. A constant series maps to all zeros.
func Normalize(xs []float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	lo, hi := Min(xs), Max(xs)
	out := make([]float64, len(xs))
	if hi == lo {
		return out
	}
	for i, x := range xs {
		out[i] = (x - lo) / (hi - lo)
	}
	return out
}

// Pearson returns the Pearson correlation coefficient between xs and ys. It
// panics if the slices differ in length or are shorter than 2. A series with
// zero variance yields NaN.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Pearson length mismatch")
	}
	if len(xs) < 2 {
		panic("stats: Pearson needs at least 2 points")
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	return sxy / math.Sqrt(sxx*syy)
}

// ArgMin returns the index of the smallest element. It panics on an empty
// slice; ties resolve to the first occurrence.
func ArgMin(xs []float64) int {
	mustNonEmpty(xs)
	best := 0
	for i, x := range xs {
		if x < xs[best] {
			best = i
		}
	}
	return best
}

// ArgMax returns the index of the largest element. It panics on an empty
// slice; ties resolve to the first occurrence.
func ArgMax(xs []float64) int {
	mustNonEmpty(xs)
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// Ranks returns the 1-based ascending rank of every element (rank 1 = the
// smallest value). Ties are broken by position.
func Ranks(xs []float64) []int {
	ranks := make([]int, len(xs))
	for r, i := range Order(xs) {
		ranks[i] = r + 1
	}
	return ranks
}

// Order returns the indices of xs in ascending stable order: xs[ord[0]]
// is the smallest element and ties keep their original relative order, so
// ord[r] is the element of rank r+1. Callers that consume the permutation
// directly (start-time ranking) skip the ranks array Ranks materializes.
//
// The common inputs — window sums over smooth seasonal series — are close
// to uniformly distributed, so the order comes from a stable bucket sort:
// one counting pass distributes indices into n equal-width buckets and a
// bounded insertion sort orders each bucket, linear time in practice.
// Distributions the buckets cannot split (heavy skew, ties everywhere,
// non-finite values) fall back to a comparison sort with identical tie
// semantics.
func Order(xs []float64) []int32 {
	n := len(xs)
	if n < 64 {
		return orderBySort(xs)
	}
	lo, hi := xs[0], xs[0]
	sum := 0.0
	for _, v := range xs {
		sum += v
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	// Non-finite inputs take the fallback: any NaN element propagates
	// into the running sum (NaN never updates lo/hi, so the scale alone
	// cannot detect it, and float-to-int conversion of NaN is
	// implementation-defined — MinInt on amd64 but 0 on arm64, which
	// would silently mis-bucket). Infinities zero or poison the scale. A
	// finite sum overflow also falls back, which is merely slower.
	if math.IsNaN(sum) || math.IsInf(sum, 0) {
		return orderBySort(xs)
	}
	// A zero or non-finite scale means an all-equal input.
	scale := float64(n-1) / (hi - lo)
	if math.IsNaN(scale) || math.IsInf(scale, 0) || scale <= 0 {
		return orderBySort(xs)
	}

	// Stable counting distribution of indices into n buckets. counts is
	// offset by one so that after distribution counts[b] is the end of
	// bucket b's run and counts[b-1] its start, avoiding a second offsets
	// array; scattering int32 indices rather than value/index pairs keeps
	// the working set small.
	counts := make([]int32, n+2)
	for _, v := range xs {
		b := int((v-lo)*scale) + 1
		if uint(b) > uint(n) {
			return orderBySort(xs)
		}
		counts[b]++
	}
	for b := 1; b <= n; b++ {
		counts[b] += counts[b-1]
	}
	sorted := make([]int32, n)
	for i, v := range xs {
		b := int((v - lo) * scale)
		sorted[counts[b]] = int32(i)
		counts[b]++
	}

	// Stable insertion sort within each bucket; a bucket too large means
	// the distribution defeated the bucketing, so fall back wholesale.
	const maxBucket = 48
	prevEnd := int32(0)
	for b := 0; b < n; b++ {
		s, e := prevEnd, counts[b]
		prevEnd = e
		if e-s > maxBucket {
			return orderBySort(xs)
		}
		for i := s + 1; i < e; i++ {
			p := sorted[i]
			pv := xs[p]
			j := i - 1
			for j >= s && xs[sorted[j]] > pv {
				sorted[j+1] = sorted[j]
				j--
			}
			sorted[j+1] = p
		}
	}
	return sorted
}

// orderBySort is the comparison-sort path: a concrete-typed stable sort
// of indices, preserving Order's break-ties-by-position contract.
func orderBySort(xs []float64) []int32 {
	idx := make([]int32, len(xs))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortStableFunc(idx, func(a, b int32) int {
		va, vb := xs[a], xs[b]
		switch {
		case va < vb:
			return -1
		case va > vb:
			return 1
		default:
			return 0
		}
	})
	return idx
}

// MonthlyMeans aggregates an hourly year-long series (8760 values, or 8784
// for leap years) into 12 per-month means using standard month lengths. For
// series whose length is not a whole year it splits into 12 equal chunks.
func MonthlyMeans(hourly []float64) []float64 {
	if len(hourly) == 0 {
		return nil
	}
	monthHours := []int{744, 672, 744, 720, 744, 720, 744, 744, 720, 744, 720, 744} // 8760
	if len(hourly) == 8784 {                                                        // leap year: February has 696 h
		monthHours[1] = 696
	}
	total := 0
	for _, h := range monthHours {
		total += h
	}
	out := make([]float64, 12)
	if len(hourly) != total {
		// Not a calendar year: fall back to 12 equal chunks.
		chunk := len(hourly) / 12
		if chunk == 0 {
			chunk = 1
		}
		for m := 0; m < 12; m++ {
			lo := m * chunk
			hi := lo + chunk
			if m == 11 || hi > len(hourly) {
				hi = len(hourly)
			}
			if lo >= hi {
				out[m] = out[max(0, m-1)]
				continue
			}
			out[m] = Mean(hourly[lo:hi])
		}
		return out
	}
	pos := 0
	for m, h := range monthHours {
		out[m] = Mean(hourly[pos : pos+h])
		pos += h
	}
	return out
}

// HoursPerYear is the length of the non-leap hourly series used throughout
// the synthetic substrates.
const HoursPerYear = 8760

// Clamp limits x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func mustNonEmpty(xs []float64) {
	if len(xs) == 0 {
		panic("stats: empty slice")
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
