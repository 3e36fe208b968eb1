package stats_test

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"thirstyflops/internal/energy"
	"thirstyflops/internal/stats"
	"thirstyflops/internal/weather"
)

// inlineSeasonCos is the seasonal cosine exactly as the grid and weather
// generators evaluated it per hour before it was tabulated.
func inlineSeasonCos(h int, shift float64) float64 {
	day := float64(h) / 24.0
	return math.Cos(2 * math.Pi * (day - shift) / 365)
}

// checkSeasonCos fails unless every entry of table is bit-equal to the
// inline expression at shift.
func checkSeasonCos(t *testing.T, table *[stats.HoursPerYear]float64, shift float64) {
	t.Helper()
	for h, got := range table {
		if want := inlineSeasonCos(h, shift); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("shift %v hour %d: table %v (%#x), inline %v (%#x)",
				shift, h, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// seasonShifts is every shift the bundled generators use, plus
// fractional and negative ones a custom configuration could bring.
func seasonShifts() []float64 {
	shifts := []float64{0, math.Copysign(0, -1), 172, 200, 0.5, -17.25, 365.25, -365, 1e-9}
	for _, r := range energy.AllRegions() {
		shifts = append(shifts, r.HydroPeakDay)
	}
	for _, s := range weather.AllSites() {
		shifts = append(shifts, s.WarmestDay)
	}
	rng := stats.NewRNG(22)
	for i := 0; i < 8; i++ {
		shifts = append(shifts, -400+1200*rng.Float64())
	}
	return shifts
}

func TestSeasonCosMatchesInline(t *testing.T) {
	for _, shift := range seasonShifts() {
		checkSeasonCos(t, stats.SeasonCos(shift), shift)
	}
}

// TestSeasonCosMemoBounded churns three bounds' worth of distinct
// shifts through the memo: it must never hold more than its bound, and
// a table rebuilt after eviction must still be exact.
func TestSeasonCosMemoBounded(t *testing.T) {
	for i := 0; i < 3*stats.SeasonTables; i++ {
		stats.SeasonCos(1000 + float64(i)/8)
		if n := stats.SeasonMemoStats().Entries; n > stats.SeasonTables {
			t.Fatalf("after %d shifts the memo holds %d tables, bound %d", i+1, n, stats.SeasonTables)
		}
	}
	for _, shift := range []float64{1000, 1000 + 1.0/8, 172} {
		checkSeasonCos(t, stats.SeasonCos(shift), shift)
	}
}

// coldShifts numbers the shifts TestSeasonCosConcurrentFirstUse asks
// for, so every run of it, -count repeats included, starts cold.
var coldShifts atomic.Int64

// TestSeasonCosConcurrentFirstUse has many goroutines ask for a shift
// no other test uses at once: every caller must get the one shared
// table, built once.
func TestSeasonCosConcurrentFirstUse(t *testing.T) {
	shift := -2000 - float64(coldShifts.Add(1))/8
	const callers = 8
	var (
		wg     sync.WaitGroup
		start  = make(chan struct{})
		tables [callers]*[stats.HoursPerYear]float64
	)
	before := stats.SeasonMemoStats().Misses
	for i := range tables {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			tables[i] = stats.SeasonCos(shift)
		}(i)
	}
	close(start)
	wg.Wait()
	if built := stats.SeasonMemoStats().Misses - before; built != 1 {
		t.Errorf("%d concurrent first uses built %d tables, want 1", callers, built)
	}
	for i, tab := range tables {
		if tab != tables[0] {
			t.Fatalf("caller %d got a different table than caller 0", i)
		}
	}
	checkSeasonCos(t, tables[0], shift)
}
