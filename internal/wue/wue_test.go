package wue

import (
	"math"
	"testing"
	"testing/quick"

	"thirstyflops/internal/stats"
	"thirstyflops/internal/units"
	"thirstyflops/internal/weather"
)

func TestCurveFloorBelowCutoff(t *testing.T) {
	c := DefaultCurve()
	for _, wb := range []units.Celsius{-20, -5, 0, 2} {
		if got := c.At(wb); got != c.Floor {
			t.Errorf("At(%v) = %v, want floor %v", wb, got, c.Floor)
		}
	}
}

func TestCurveGrowsAboveCutoff(t *testing.T) {
	c := DefaultCurve()
	prev := c.At(c.Cutoff)
	for wb := float64(c.Cutoff) + 1; wb <= 30; wb++ {
		cur := c.At(units.Celsius(wb))
		if cur <= prev {
			t.Fatalf("WUE not increasing at %v°C: %v <= %v", wb, cur, prev)
		}
		prev = cur
	}
}

func TestCurveKnownValue(t *testing.T) {
	c := Curve{Floor: 0.05, Cutoff: 2, Coeff: 0.026}
	// At 22°C wet bulb: 0.05 + 0.026*400 = 10.45.
	got := c.At(22)
	if math.Abs(float64(got)-10.45) > 1e-9 {
		t.Errorf("At(22) = %v, want 10.45", got)
	}
}

func TestCurveValidate(t *testing.T) {
	if err := DefaultCurve().Validate(); err != nil {
		t.Errorf("default curve invalid: %v", err)
	}
	if err := (Curve{Floor: -1}).Validate(); err == nil {
		t.Error("negative floor should fail validation")
	}
	if err := (Curve{Coeff: -0.1}).Validate(); err == nil {
		t.Error("negative coefficient should fail validation")
	}
}

func TestCurveSeries(t *testing.T) {
	c := DefaultCurve()
	wbs := []units.Celsius{0, 10, 20}
	s := c.Series(wbs)
	sf := c.SeriesFloat(wbs)
	if len(s) != 3 || len(sf) != 3 {
		t.Fatal("series length mismatch")
	}
	for i := range s {
		if float64(s[i]) != sf[i] {
			t.Errorf("Series/SeriesFloat disagree at %d", i)
		}
		if s[i] != c.At(wbs[i]) {
			t.Errorf("Series[%d] != At", i)
		}
	}
}

func TestCurveMonotoneProperty(t *testing.T) {
	c := DefaultCurve()
	f := func(a, b float64) bool {
		wa := stats.Clamp(math.Mod(math.Abs(a), 70)-20, -20, 50)
		wb := stats.Clamp(math.Mod(math.Abs(b), 70)-20, -20, 50)
		if wa > wb {
			wa, wb = wb, wa
		}
		return c.At(units.Celsius(wa)) <= c.At(units.Celsius(wb))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCurveAlwaysAtLeastFloorProperty(t *testing.T) {
	c := DefaultCurve()
	f := func(wb float64) bool {
		w := stats.Clamp(math.Mod(wb, 100), -50, 50)
		return c.At(units.Celsius(w)) >= c.Floor
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTowerValidate(t *testing.T) {
	if err := DefaultTower().Validate(); err != nil {
		t.Errorf("default tower invalid: %v", err)
	}
	if err := (Tower{CyclesOfConcentration: 1}).Validate(); err == nil {
		t.Error("cycles <= 1 should fail")
	}
	if err := (Tower{CyclesOfConcentration: 4, DriftFraction: 0.5}).Validate(); err == nil {
		t.Error("huge drift should fail")
	}
}

func TestTowerBalanceComponents(t *testing.T) {
	tw := DefaultTower()
	b := tw.Reject(1000, 20)
	if b.Evaporation <= 0 || b.Drift <= 0 || b.Blowdown <= 0 {
		t.Fatalf("all balance components should be positive: %+v", b)
	}
	// Blowdown = evap / (C-1) with C=4 → evap/3.
	if math.Abs(float64(b.Blowdown)-float64(b.Evaporation)/3) > 1e-9 {
		t.Errorf("blowdown = %v, want evap/3 = %v", b.Blowdown, float64(b.Evaporation)/3)
	}
	// Consumption excludes blowdown; withdrawal includes it.
	if b.Consumption() != b.Evaporation+b.Drift {
		t.Error("consumption must be evap+drift")
	}
	if b.Withdrawal() != b.Evaporation+b.Drift+b.Blowdown {
		t.Error("withdrawal must be evap+drift+blowdown")
	}
	if b.Withdrawal() <= b.Consumption() {
		t.Error("withdrawal must exceed consumption")
	}
}

func TestTowerNegativeHeatClamped(t *testing.T) {
	b := DefaultTower().Reject(-50, 20)
	if b.Evaporation != 0 || b.Drift != 0 || b.Blowdown != 0 {
		t.Errorf("negative heat should yield zero balance, got %+v", b)
	}
}

func TestEvaporativeFractionBounds(t *testing.T) {
	tw := DefaultTower()
	for wb := -40.0; wb <= 60; wb += 5 {
		f := tw.EvaporativeFraction(units.Celsius(wb))
		if f < 0.15 || f > 0.98 {
			t.Fatalf("fraction %v out of [0.15,0.98] at %v°C", f, wb)
		}
	}
	if tw.EvaporativeFraction(30) <= tw.EvaporativeFraction(0) {
		t.Error("evaporative fraction should increase with wet bulb")
	}
}

func TestImpliedWUE(t *testing.T) {
	tw := DefaultTower()
	w := tw.ImpliedWUE(1000, 1.5, 25)
	if w <= 0 {
		t.Fatalf("implied WUE should be positive, got %v", w)
	}
	// Doubling PUE (more heat per IT kWh) must raise implied WUE.
	w2 := tw.ImpliedWUE(1000, 3.0, 25)
	if w2 <= w {
		t.Errorf("higher PUE should imply higher WUE: %v vs %v", w2, w)
	}
	if got := tw.ImpliedWUE(0, 1.5, 25); got != 0 {
		t.Errorf("zero energy should imply zero WUE, got %v", got)
	}
}

func TestImpliedWUEScaleInvariant(t *testing.T) {
	// Consumption per kWh should not depend on the absolute energy amount.
	tw := DefaultTower()
	a := tw.ImpliedWUE(100, 1.2, 18)
	b := tw.ImpliedWUE(1e6, 1.2, 18)
	if math.Abs(float64(a-b)) > 1e-9 {
		t.Errorf("implied WUE not scale invariant: %v vs %v", a, b)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]units.LPerKWh{1, 3, 2, 4})
	if s.Min != 1 || s.Max != 4 {
		t.Errorf("min/max = %v/%v, want 1/4", s.Min, s.Max)
	}
	if math.Abs(s.Mean-2.5) > 1e-12 {
		t.Errorf("mean = %v, want 2.5", s.Mean)
	}
	if math.Abs(s.Median-2.5) > 1e-12 {
		t.Errorf("median = %v, want 2.5", s.Median)
	}
	if s.Range() != 3 {
		t.Errorf("range = %v, want 3", s.Range())
	}
	if z := Summarize(nil); z != (AnnualStats{}) {
		t.Errorf("empty summarize should be zero, got %+v", z)
	}
}

func TestRoundTo(t *testing.T) {
	if got := RoundTo(10.5949, 2); math.Abs(float64(got)-10.59) > 1e-12 {
		t.Errorf("RoundTo = %v, want 10.59", got)
	}
}

func TestAnnualWUEOverRealClimatology(t *testing.T) {
	// Integration: the default curve over the four sites should produce
	// annual mean WUE in a plausible 1.5-5 L/kWh band with ranges wide
	// enough to reproduce Fig. 6(b)'s temporal variation story.
	c := DefaultCurve()
	for name, site := range weather.Sites() {
		yr := site.HourlyYear(42)
		s := Summarize(c.Series(weather.WetBulbSeries(yr)))
		if s.Mean < 1.0 || s.Mean > 6.0 {
			t.Errorf("%s: annual mean WUE %v outside plausible band", name, s.Mean)
		}
		if s.Range() < 4 {
			t.Errorf("%s: WUE annual range %v too narrow for Fig 6(b) shape", name, s.Range())
		}
		if s.Min < float64(c.Floor)-1e-9 {
			t.Errorf("%s: WUE min %v below floor", name, s.Min)
		}
	}
}
