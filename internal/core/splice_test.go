package core

import (
	"math"
	"math/rand"
	"testing"

	"thirstyflops/internal/hardware"
	"thirstyflops/internal/stats"
	"thirstyflops/internal/telemetry"
	"thirstyflops/internal/units"
)

// liveWindow is a window of the given hours at [lo, lo+hours): about one
// hour in four is a gap, the rest observe a random draw up to peak power.
func liveWindow(rng *rand.Rand, lo, hours int, peak units.Watts) telemetry.LiveWindow {
	w := telemetry.LiveWindow{Lo: lo, Hi: lo + hours, Energy: make([]units.KWh, hours), Observed: make([]bool, hours)}
	for i := range w.Energy {
		if rng.Intn(4) == 0 {
			continue
		}
		w.Energy[i] = units.Watts(float64(peak) * rng.Float64()).EnergyOver(1)
		w.Observed[i] = true
		w.HoursObserved++
	}
	return w
}

// TestSplicedMatchesAnnualFrom prices live windows from each Table 1
// system's simulated year without building the spliced timeline, and
// compares the result with AnnualFrom over the explicit splice: every
// aggregate and both annual-mean intensities agree bit for bit. Windows
// start at random hours over the whole year, at hour 0, and end at the
// last hour, and each is priced from a base with carried intensities and
// from one without (the persisted record's shape).
func TestSplicedMatchesAnnualFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const window = 336
	for _, sys := range hardware.Systems() {
		base := mustAssess(t, sys.Name)
		c := base.Hourly.Checkpoints()
		los := []int{0, stats.HoursPerYear - window}
		for len(los) < 40 {
			los = append(los, rng.Intn(stats.HoursPerYear))
		}
		for _, lo := range los {
			hours := min(window, stats.HoursPerYear-lo)
			w := liveWindow(rng, lo, hours, sys.PeakPower)
			want := AnnualFrom(base.System, w.SpliceInto(base.Hourly))
			f := c.Resume(base.Hourly, w.Lo, w.Energy, w.Observed)
			for _, from := range []Annual{base, {System: base.System, Hourly: base.Hourly}} {
				got := from.Spliced(f)
				if got.Hourly.Len() != 0 || !got.hasMeans {
					t.Fatalf("%s lo %d: spliced year keeps %d hours, carried=%v", sys.Name, lo, got.Hourly.Len(), got.hasMeans)
				}
				gd, gi, _ := got.WaterIntensity()
				wd, wi, _ := want.WaterIntensity()
				for _, pair := range [][2]float64{
					{float64(got.Energy), float64(want.Energy)},
					{float64(got.Direct), float64(want.Direct)},
					{float64(got.Indirect), float64(want.Indirect)},
					{float64(got.Carbon), float64(want.Carbon)},
					{float64(gd), float64(wd)},
					{float64(gi), float64(wi)},
				} {
					if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
						t.Fatalf("%s lo %d (carried=%v): spliced %+v, AnnualFrom %+v", sys.Name, lo, from.hasMeans, got, want)
					}
				}
			}
		}
	}
}
