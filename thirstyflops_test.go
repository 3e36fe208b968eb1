package thirstyflops

import (
	"math"
	"testing"
)

func TestSystemNames(t *testing.T) {
	names := SystemNames()
	want := []string{"Marconi", "Fugaku", "Polaris", "Frontier"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("names[%d] = %s, want %s", i, names[i], want[i])
		}
	}
}

func TestEndToEndAssessment(t *testing.T) {
	cfg, err := SystemConfig("Frontier")
	if err != nil {
		t.Fatal(err)
	}
	a, err := cfg.Assess()
	if err != nil {
		t.Fatal(err)
	}
	if a.Operational() <= 0 {
		t.Fatal("no operational footprint")
	}
	bd, err := cfg.EmbodiedBreakdown()
	if err != nil {
		t.Fatal(err)
	}
	if bd.Total() <= 0 {
		t.Fatal("no embodied footprint")
	}
	f, err := cfg.Lifetime(6)
	if err != nil {
		t.Fatal(err)
	}
	if f.Total() != f.Embodied+f.Direct+f.Indirect {
		t.Error("Eq. 1 broken through the facade")
	}
}

func TestFacadeScenarioSweep(t *testing.T) {
	cfg, err := SystemConfig("Marconi")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := cfg.ScenarioSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 5 {
		t.Fatalf("scenario count = %d", len(rs))
	}
	found := false
	for _, r := range rs {
		if r.Scenario == Nuclear100Scenario && r.CarbonSavingPct > 80 {
			found = true
		}
	}
	if !found {
		t.Error("nuclear scenario should save >80% carbon")
	}
}

func TestFacadeCustomSystem(t *testing.T) {
	// Define a small custom system entirely through the public API and
	// run the embodied model on it.
	base, err := SystemByName("Polaris")
	if err != nil {
		t.Fatal(err)
	}
	custom := base
	custom.Name = "MiniCluster"
	custom.Nodes = 16
	custom.Storage = []StoragePool{{Name: "flash", Kind: SSD, Capacity: 50_000}}
	bd, err := SystemEmbodied(custom, DefaultEmbodiedParams())
	if err != nil {
		t.Fatal(err)
	}
	if bd.Total() <= 0 {
		t.Error("custom system has no embodied footprint")
	}
	big, _ := SystemEmbodied(base, DefaultEmbodiedParams())
	if bd.Total() >= big.Total() {
		t.Error("16-node system should embody less water than 560-node Polaris")
	}
}

func TestFacadeWetBulb(t *testing.T) {
	wb := WetBulb(20, 50)
	if math.Abs(float64(wb)-13.7) > 0.2 {
		t.Errorf("WetBulb(20,50) = %v", wb)
	}
}

func TestFacadeSchedulingFlow(t *testing.T) {
	trace, err := GenerateTrace(DefaultTrace(32), 7)
	if err != nil {
		t.Fatal(err)
	}
	r, err := EASYBackfill(trace, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Placements) != len(trace) {
		t.Error("jobs lost in scheduling")
	}
}

func TestFacadeMiniAMR(t *testing.T) {
	mesh, err := NewMiniAMR(DefaultMiniAMRConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := mesh.Run()
	if st.CellUpdates <= 0 {
		t.Error("mini-app did no work")
	}
	e := DefaultMiniAMREnergyModel().Energy(st)
	if e <= 0 {
		t.Error("mini-app energy should be positive")
	}
}

func TestFacadeRegionsAndSites(t *testing.T) {
	if len(Regions()) != 4 || len(Sites()) != 4 {
		t.Error("paper regions/sites missing")
	}
	if len(CandidateRegions()) < 3 {
		t.Error("candidate regions missing")
	}
	w, err := SiteScarcity("Lemont")
	if err != nil || w <= 0 {
		t.Errorf("SiteScarcity(Lemont) = %v, %v", w, err)
	}
	if len(ParameterChecklist()) < 19 {
		t.Error("parameter checklist incomplete")
	}
}

func TestFacadePowerLog(t *testing.T) {
	sys, _ := SystemByName("Marconi")
	log := PowerLogFor(sys, DefaultDemand(), 1, 2022)
	if err := log.Validate(); err != nil {
		t.Fatal(err)
	}
	if log.Energy() <= 0 {
		t.Error("empty energy")
	}
}

func TestFacadeGeoShifting(t *testing.T) {
	cfgs, err := AllSystemConfigs()
	if err != nil {
		t.Fatal(err)
	}
	centers := make([]GeoCenter, 0, 2)
	for _, cfg := range cfgs[:2] {
		c, err := GeoCenterFrom(cfg, 0.2)
		if err != nil {
			t.Fatal(err)
		}
		centers = append(centers, c)
	}
	jobsIn := GeoSyntheticJobs(20, 8760, 4, 300, 1)
	o, err := GeoDispatch(centers, jobsIn, WaterGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if o.Energy <= 0 || o.Water <= 0 {
		t.Error("dispatch produced no footprint")
	}
	outs, err := GeoCompareAll(centers, jobsIn)
	if err != nil || len(outs) != 5 {
		t.Fatalf("CompareAll: %v, %d outcomes", err, len(outs))
	}
}

func TestFacadeSensitivity(t *testing.T) {
	cfg, err := SystemConfig("Marconi")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := SensitivityAnalyze(cfg, 6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("no sensitivity results")
	}
	if rs[0].SwingPct == 0 {
		t.Error("top factor should have nonzero swing")
	}
}

func TestFacadeWaterCap(t *testing.T) {
	cfg, err := SystemConfig("Marconi")
	if err != nil {
		t.Fatal(err)
	}
	a, err := cfg.Assess()
	if err != nil {
		t.Fatal(err)
	}
	mean := float64(a.Operational()) / float64(a.Hourly.Len())
	p := WaterCapPolicy{HourlyCap: Liters(mean * 0.8), DryMix: DefaultDryMix()}
	r, err := RunWaterCap(p, a.Hourly)
	if err != nil {
		t.Fatal(err)
	}
	if r.WaterSavedPct() <= 0 {
		t.Error("capping should save water on Marconi")
	}
}

func TestFacadeUpgrade(t *testing.T) {
	oldCfg, err := SystemConfig("Marconi")
	if err != nil {
		t.Fatal(err)
	}
	newCfg, err := SystemConfig("Frontier")
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeUpgrade(UpgradePlan{Old: oldCfg, New: newCfg, HorizonYears: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !a.WaterPositive() {
		t.Error("generation upgrade should be water-positive")
	}
}
