package energy

import (
	"math"
	"testing"
	"testing/quick"

	"thirstyflops/internal/stats"
	"thirstyflops/internal/units"
)

func TestSourceStringAndParse(t *testing.T) {
	// Names are what configuration files and reports carry, so every
	// source needs its own.
	seen := make(map[string]Source)
	for _, s := range AllSources() {
		name := s.String()
		if name == "" {
			t.Fatalf("source %d has empty name", s)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("sources %d and %d share the name %q", prev, s, name)
		}
		seen[name] = s
	}
	if s := Source(99).String(); s != "source(99)" {
		t.Errorf("out-of-range String = %q", s)
	}
}

func TestSourceClassification(t *testing.T) {
	if Nuclear.Renewable() {
		t.Error("nuclear is not renewable")
	}
	for _, s := range []Source{Hydro, Wind, Solar, Geothermal, Biomass} {
		if !s.Renewable() {
			t.Errorf("%v should be renewable", s)
		}
	}
	if !Gas.Dispatchable() || Wind.Dispatchable() || Solar.Dispatchable() {
		t.Error("dispatchability misclassified")
	}
}

func TestFactorTablesComplete(t *testing.T) {
	for _, s := range AllSources() {
		e := s.EWFRange()
		if !e.Valid() {
			t.Errorf("%v EWF range invalid: %+v", s, e)
		}
		c := s.CarbonRange()
		if !c.Valid() {
			t.Errorf("%v carbon range invalid: %+v", s, c)
		}
		if float64(s.EWF()) != e.Median {
			t.Errorf("%v EWF() != median", s)
		}
		if float64(s.CarbonIntensity()) != c.Median {
			t.Errorf("%v CarbonIntensity() != median", s)
		}
	}
}

func TestFig5Shape(t *testing.T) {
	// The paper's takeaway: greener sources (hydro, geothermal) can be the
	// most water-intensive, while fossil sources are carbon-intensive but
	// comparatively water-light.
	if Hydro.EWF() <= Coal.EWF() {
		t.Error("hydro EWF should exceed coal (Fig. 5 shape)")
	}
	if Geothermal.EWF() <= Gas.EWF() {
		t.Error("geothermal EWF should exceed gas")
	}
	if Hydro.CarbonIntensity() >= Coal.CarbonIntensity() {
		t.Error("hydro carbon should be far below coal")
	}
	if Wind.EWF() >= Nuclear.EWF() {
		t.Error("wind should be the least water-intensive vs nuclear")
	}
	// Nuclear: carbon on par with renewables (Fig. 14 observation 1).
	if Nuclear.CarbonIntensity() > Solar.CarbonIntensity() {
		t.Error("nuclear carbon intensity should be at or below solar's")
	}
}

func TestMixValidate(t *testing.T) {
	good := Mix{Coal: 0.5, Gas: 0.5}
	if err := good.Validate(); err != nil {
		t.Errorf("valid mix rejected: %v", err)
	}
	if err := (Mix{Coal: 0.7, Gas: 0.7}).Validate(); err == nil {
		t.Error("over-unity mix accepted")
	}
	if err := (Mix{Coal: -0.1, Gas: 1.1}).Validate(); err == nil {
		t.Error("negative share accepted")
	}
}

func TestMixNormalized(t *testing.T) {
	m := Mix{Coal: 2, Gas: 6}.Normalized()
	if math.Abs(m[Coal]-0.25) > 1e-12 || math.Abs(m[Gas]-0.75) > 1e-12 {
		t.Errorf("Normalized = %v", m)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("normalized mix invalid: %v", err)
	}
	// Negative shares are clipped before normalizing.
	m2 := Mix{Coal: -1, Gas: 1}.Normalized()
	if m2[Coal] != 0 || m2[Gas] != 1 {
		t.Errorf("negative clip failed: %v", m2)
	}
	// All-zero mix stays unchanged instead of dividing by zero.
	z := Mix{Coal: 0}.Normalized()
	if z[Coal] != 0 {
		t.Errorf("zero mix mangled: %v", z)
	}
}

func TestMixEWFAndCarbon(t *testing.T) {
	m := Mix{Coal: 0.5, Wind: 0.5}
	wantEWF := 0.5*float64(Coal.EWF()) + 0.5*float64(Wind.EWF())
	if got := float64(m.EWF(nil)); math.Abs(got-wantEWF) > 1e-12 {
		t.Errorf("EWF = %v, want %v", got, wantEWF)
	}
	wantCI := 0.5*float64(Coal.CarbonIntensity()) + 0.5*float64(Wind.CarbonIntensity())
	if got := float64(m.CarbonIntensity(nil)); math.Abs(got-wantCI) > 1e-12 {
		t.Errorf("CI = %v, want %v", got, wantCI)
	}
}

func TestMixEWFOverrides(t *testing.T) {
	m := Mix{Nuclear: 1}
	base := m.EWF(nil)
	over := m.EWF(map[Source]units.LPerKWh{Nuclear: 1.0})
	if over >= base {
		t.Errorf("override should lower EWF: %v vs %v", over, base)
	}
	if float64(over) != 1.0 {
		t.Errorf("override EWF = %v, want 1.0", over)
	}
}

func TestRenewableShare(t *testing.T) {
	m := Mix{Hydro: 0.3, Wind: 0.2, Coal: 0.5}
	if got := m.RenewableShare(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("RenewableShare = %v, want 0.5", got)
	}
}

func TestMixSourcesAndString(t *testing.T) {
	m := Mix{Gas: 0.6, Coal: 0.4, Wind: 0}
	srcs := m.Sources()
	if len(srcs) != 2 || srcs[0] != Coal || srcs[1] != Gas {
		t.Errorf("Sources = %v", srcs)
	}
	if s := m.String(); s != "coal:40.0% gas:60.0%" {
		t.Errorf("String = %q", s)
	}
}

func TestScenarioMixes(t *testing.T) {
	cur := Mix{Gas: 0.5, Coal: 0.5}
	for _, sc := range AllScenarios() {
		m := sc.MixFor(cur)
		if err := m.Validate(); err != nil {
			t.Errorf("%v mix invalid: %v", sc, err)
		}
		if sc.String() == "" {
			t.Errorf("scenario %d has empty name", sc)
		}
	}
	if m := Coal100Scenario.MixFor(cur); m[Coal] != 1 {
		t.Error("Coal100 should be pure coal")
	}
	if m := Nuclear100Scenario.MixFor(cur); m[Nuclear] != 1 {
		t.Error("Nuclear100 should be pure nuclear")
	}
	// The baseline scenario returns an independent clone.
	m := CurrentMixScenario.MixFor(cur)
	m[Gas] = 0
	if cur[Gas] != 0.5 {
		t.Error("MixFor must not alias the input mix")
	}
	if CleanRenewableMix().RenewableShare() != 1 {
		t.Error("clean renewable mix should be fully renewable")
	}
	if WaterIntensiveRenewableMix().EWF(nil) <= CleanRenewableMix().EWF(nil) {
		t.Error("water-intensive renewable mix must out-consume the clean one")
	}
}

func TestRegionsValid(t *testing.T) {
	all := []Region{Italy(), Japan(), Illinois(), Tennessee(), PacificNorthwest(), Texas(), Arizona()}
	for _, r := range all {
		if err := r.Validate(); err != nil {
			t.Errorf("%s: %v", r.Name, err)
		}
	}
	if len(Regions()) != 4 {
		t.Errorf("Regions() should return the four paper regions")
	}
}

func TestRegionValidateRejects(t *testing.T) {
	r := Italy()
	r.Name = ""
	if err := r.Validate(); err == nil {
		t.Error("empty name accepted")
	}
	r2 := Italy()
	r2.Base = Mix{Hydro: 1} // balancer (gas) missing
	if err := r2.Validate(); err == nil {
		t.Error("missing balancer accepted")
	}
	r3 := Italy()
	r3.Base = Mix{Gas: 0.7, Hydro: 0.7}
	if err := r3.Validate(); err == nil {
		t.Error("invalid base mix accepted")
	}
}

func TestHourlyYearBasics(t *testing.T) {
	hrs := Italy().HourlyYear(1)
	if len(hrs) != stats.HoursPerYear {
		t.Fatalf("len = %d", len(hrs))
	}
	for i, h := range hrs {
		if h.Index != i {
			t.Fatalf("index %d mislabeled as %d", i, h.Index)
		}
		if err := h.Mix.Validate(); err != nil {
			t.Fatalf("hour %d mix invalid: %v", i, err)
		}
		if h.EWF < 0 {
			t.Fatalf("hour %d negative EWF", i)
		}
		if h.Carbon < 0 {
			t.Fatalf("hour %d negative carbon", i)
		}
	}
}

func TestSharesAccessors(t *testing.T) {
	m := Mix{Coal: 0.25, Solar: 0.75}.shares()
	if m.Share(Solar) != 0.75 || m.Share(Gas) != 0 || m.Share(Source(99)) != 0 {
		t.Errorf("Share lookups wrong: %v", m)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("valid shares rejected: %v", err)
	}
	m[Gas] = -0.1
	if err := m.Validate(); err == nil {
		t.Error("negative share accepted")
	}
	if err := (Shares{}).Validate(); err == nil {
		t.Error("empty shares accepted")
	}
	var z Shares
	if z.normalize(sourceOrder[:]); z != (Shares{}) {
		t.Errorf("all-zero shares changed by normalize: %v", z)
	}
}

func TestHourlyYearDeterminism(t *testing.T) {
	a := Japan().HourlyYear(5)
	b := Japan().HourlyYear(5)
	for i := range a {
		if a[i].EWF != b[i].EWF || a[i].Carbon != b[i].Carbon {
			t.Fatalf("hour %d differs for identical seeds", i)
		}
	}
}

func TestSolarDiurnalPattern(t *testing.T) {
	hrs := Japan().HourlyYear(2)
	var noon, midnight float64
	n := 0
	for d := 0; d < 365; d++ {
		noon += hrs[d*24+13].Mix.Share(Solar)
		midnight += hrs[d*24+1].Mix.Share(Solar)
		n++
	}
	if noon/float64(n) <= midnight/float64(n) {
		t.Error("solar share should peak near midday")
	}
	if midnight/float64(n) > 1e-9 {
		t.Error("solar share should vanish at night")
	}
}

func TestHydroSeasonality(t *testing.T) {
	hrs := Italy().HourlyYear(3)
	// Spring (around HydroPeakDay=140 → hours ~3360) vs deep winter.
	var spring, winter float64
	for h := 3240; h < 3480; h++ {
		spring += hrs[h].Mix.Share(Hydro)
	}
	for h := 0; h < 240; h++ {
		winter += hrs[h].Mix.Share(Hydro)
	}
	if spring <= winter {
		t.Error("hydro share should peak in spring for Italy")
	}
}

func TestFig6aShape(t *testing.T) {
	// Marconi (Italy) must show the widest EWF range; Polaris (Illinois)
	// the lowest minimum EWF. The Polaris minimum should be ~85 % below
	// Marconi's maximum (paper: 1.52 vs 10.59 L/kWh).
	seed := uint64(42)
	ewf := func(r Region) []float64 {
		hours := r.HourlyYear(seed)
		out := make([]float64, len(hours))
		for i, h := range hours {
			out[i] = float64(h.EWF)
		}
		return out
	}
	it, jp, il, tn := ewf(Italy()), ewf(Japan()), ewf(Illinois()), ewf(Tennessee())

	itRange := stats.Max(it) - stats.Min(it)
	for name, s := range map[string][]float64{"Japan": jp, "Illinois": il, "Tennessee": tn} {
		if r := stats.Max(s) - stats.Min(s); r >= itRange {
			t.Errorf("%s EWF range %.2f >= Italy range %.2f", name, r, itRange)
		}
	}
	ilMin := stats.Min(il)
	for name, s := range map[string][]float64{"Italy": it, "Japan": jp, "Tennessee": tn} {
		if m := stats.Min(s); m <= ilMin {
			t.Errorf("%s EWF min %.2f <= Illinois min %.2f", name, m, ilMin)
		}
	}
	ratio := ilMin / stats.Max(it)
	if ratio < 0.05 || ratio > 0.35 {
		t.Errorf("Polaris-min/Marconi-max ratio = %.3f, want roughly 0.15 (85%% lower)", ratio)
	}
	if mx := stats.Max(it); mx < 7 || mx > 14 {
		t.Errorf("Italy max EWF = %.2f, want near 10.6 L/kWh", mx)
	}
}

func TestMeanMixCloseToBase(t *testing.T) {
	r := Tennessee()
	hours := r.HourlyYear(7)
	var sum Shares
	for _, h := range hours {
		for s, w := range h.Mix {
			sum[s] += w
		}
	}
	for s, w := range r.Base {
		if mean := sum[s] / float64(len(hours)); math.Abs(mean-w) > 0.08 {
			t.Errorf("%v annual mean share %.3f drifted from base %.3f", s, mean, w)
		}
	}
}

// Property: normalized mixes always validate.
func TestNormalizedAlwaysValidProperty(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		m := Mix{
			Coal: math.Abs(math.Mod(a, 100)), Gas: math.Abs(math.Mod(b, 100)),
			Hydro: math.Abs(math.Mod(c, 100)), Wind: math.Abs(math.Mod(d, 100)),
		}
		sum := m[Coal] + m[Gas] + m[Hydro] + m[Wind]
		if sum == 0 {
			return true
		}
		return m.Normalized().Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: mix EWF is bounded by the min and max per-source medians
// present in the mix.
func TestMixEWFBoundedProperty(t *testing.T) {
	f := func(a, b, c float64) bool {
		m := Mix{
			Coal: math.Abs(math.Mod(a, 10)), Hydro: math.Abs(math.Mod(b, 10)),
			Wind: math.Abs(math.Mod(c, 10)),
		}
		if m[Coal]+m[Hydro]+m[Wind] == 0 {
			return true
		}
		m = m.Normalized()
		e := float64(m.EWF(nil))
		lo := float64(Wind.EWF())
		hi := float64(Hydro.EWF())
		return e >= lo-1e-9 && e <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUSStates(t *testing.T) {
	states := USStates()
	if len(states) != 50 {
		t.Fatalf("state count = %d, want 50", len(states))
	}
	for i := 1; i < len(states); i++ {
		if states[i-1].Code >= states[i].Code {
			t.Fatal("states not sorted by code")
		}
	}
	for _, s := range states {
		if s.CarbonIntensity <= 0 {
			t.Errorf("%s: non-positive carbon intensity", s.Code)
		}
		if s.HPCPowerMW < 0 {
			t.Errorf("%s: negative HPC power", s.Code)
		}
	}
	byCode := make(map[string]StateProfile, len(states))
	for _, s := range states {
		byCode[s.Code] = s
	}
	tn, ok := byCode["TN"]
	if !ok || tn.Name != "Tennessee" {
		t.Fatal("TN missing or misnamed")
	}
	if tn.HPCPowerMW < 20 {
		t.Error("Tennessee (Frontier+Summit) should dominate HPC power")
	}
	if TotalHPCPowerMW() <= 0 {
		t.Error("total HPC power should be positive")
	}
	// Fig 1(a) gradient: coastal WA/CA below inland WV/WY.
	wa, wv := byCode["WA"], byCode["WV"]
	if wa.CarbonIntensity >= wv.CarbonIntensity {
		t.Error("coastal WA should be lower-carbon than WV")
	}
}
