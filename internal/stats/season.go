package stats

import (
	"math"

	"thirstyflops/internal/cache"
)

// seasonTables bounds the SeasonCos memo: 32 tables of 70 KB, 2.2 MB.
// The bundled regions and sites use 11 shifts; a configuration with an
// unusual shift can only evict a table, and rebuilding one gives the
// same bits.
const seasonTables = 32

// seasonMemo holds the SeasonCos tables keyed by the shift's bits, so
// every shift (even a NaN) names exactly one table.
var seasonMemo = cache.New[uint64, *[HoursPerYear]float64](seasonTables)

// SeasonCos returns the annual harmonic cos(2π(day−shift)/365) for every
// hour of the year, with day = h/24: the seasonal term of the grid and
// weather generators. Each entry is evaluated exactly as those
// generators evaluated it inline, so a lookup reproduces the inline
// value bit for bit. Tables are built once per shift and shared by every
// caller; they must not be written to.
func SeasonCos(shift float64) *[HoursPerYear]float64 {
	t, _, _ := seasonMemo.Get(math.Float64bits(shift), func() (*[HoursPerYear]float64, error) {
		return seasonCos(shift), nil
	})
	return t
}

// seasonCos builds one SeasonCos table.
func seasonCos(shift float64) *[HoursPerYear]float64 {
	t := new([HoursPerYear]float64)
	for h := range t {
		day := float64(h) / 24.0
		t[h] = math.Cos(2 * math.Pi * (day - shift) / 365)
	}
	return t
}
