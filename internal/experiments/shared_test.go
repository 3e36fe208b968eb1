package experiments

import (
	"testing"

	"thirstyflops/internal/core"
	"thirstyflops/internal/hardware"
	"thirstyflops/internal/series"
	"thirstyflops/internal/units"
)

// directYear builds cfg's hourly year straight from the generators,
// bypassing the substrate memo, so it shares no channel with any
// assessed year.
func directYear(t *testing.T, cfg core.Config) series.Series {
	t.Helper()
	util := cfg.Demand.UtilizationYear(cfg.Seed)
	energy := make([]units.KWh, len(util))
	for h := range util {
		energy[h] = cfg.System.PowerAt(util[h]).EnergyOver(1)
	}
	ewf, carbon := cfg.Region.Signals(cfg.Seed)
	s, err := series.From(cfg.System.PUE, energy, cfg.Curve.Series(cfg.Site.WetBulbYear(cfg.Seed)), ewf, carbon)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestExperimentsLeaveSharedYearsIntact is the regression net for the
// read-only channel contract: assessed years alias the memoized
// substrate intensities, so a consumer that wrote through Annual.Hourly
// would corrupt every later assessment at the same site, grid and seed.
// Every generator waterbench prints runs while the bundled systems'
// years are held, and afterwards both the held years and fresh
// assessments must be bit-identical to years built straight from the
// generators.
func TestExperimentsLeaveSharedYearsIntact(t *testing.T) {
	systems := append(hardware.Systems(), hardware.OutlookSystems()...)
	cfgs := make([]core.Config, len(systems))
	held := make([]core.Annual, len(systems))
	for i, sys := range systems {
		cfg, err := core.ConfigFor(sys.Name)
		if err != nil {
			t.Fatal(err)
		}
		if held[i], err = cfg.Assess(); err != nil {
			t.Fatal(err)
		}
		cfgs[i] = cfg
	}
	if _, err := All(); err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		want := directYear(t, cfg)
		fresh, err := cfg.Assess()
		if err != nil {
			t.Fatal(err)
		}
		if !held[i].Hourly.Equal(want) {
			t.Errorf("%s: a year held across the experiments changed", cfg.System.Name)
		}
		if !fresh.Hourly.Equal(want) {
			t.Errorf("%s: a fresh assessment after the experiments is not the generators' year", cfg.System.Name)
		}
	}
}
