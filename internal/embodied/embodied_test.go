package embodied

import (
	"math"
	"testing"
	"testing/quick"

	"thirstyflops/internal/hardware"
	"thirstyflops/internal/units"
)

func TestNodeFactorsMonotone(t *testing.T) {
	// Water and energy per cm² must grow as process nodes shrink. The
	// table must list nodes in descending size for factorsAt to bracket.
	for i := 1; i < len(nodeFactors); i++ {
		bigger, smaller := nodeFactors[i-1].Node, nodeFactors[i].Node
		if smaller >= bigger {
			t.Fatalf("node table not descending: %v after %v", smaller, bigger)
		}
		if UPW(smaller) <= UPW(bigger) {
			t.Errorf("UPW(%v) <= UPW(%v)", smaller, bigger)
		}
		if PCW(smaller) <= PCW(bigger) {
			t.Errorf("PCW(%v) <= PCW(%v)", smaller, bigger)
		}
		if factorsAt(smaller).Energy <= factorsAt(bigger).Energy {
			t.Errorf("Energy(%v) <= Energy(%v)", smaller, bigger)
		}
	}
}

func TestUPWWithinTable2Range(t *testing.T) {
	// Table 2: UPW 5.9-14.2 L across process nodes 3-28 nm.
	for n := 3.0; n <= 28; n++ {
		u := float64(UPW(units.Nanometers(n)))
		if u < 5.9-1e-9 || u > 14.2+1e-9 {
			t.Errorf("UPW(%v nm) = %v outside Table 2's 5.9-14.2", n, u)
		}
	}
}

func TestFactorInterpolationAndClamping(t *testing.T) {
	// Midway between 14 and 12 nm.
	mid := float64(UPW(13))
	want := (8.0 + 8.5) / 2
	if math.Abs(mid-want) > 1e-9 {
		t.Errorf("UPW(13) = %v, want %v", mid, want)
	}
	// Clamps outside covered range.
	if UPW(90) != UPW(28) {
		t.Error("UPW should clamp above 28 nm")
	}
	if UPW(1) != UPW(3) {
		t.Error("UPW should clamp below 3 nm")
	}
}

func TestWPADependsOnFabGrid(t *testing.T) {
	// Only Eq. 4's WPA term (fab energy per cm² times the fab grid's EWF)
	// depends on FabEWF, so raising it from 1 to 4 L/kWh adds 3x the fab
	// energy of the 8 cm² die.
	p := hardware.Processor{
		Name: "test", Kind: hardware.GPU,
		Dies:    []hardware.Die{{Area: 800, Node: 7, Count: 1}},
		ICCount: 10,
	}
	dry, err := ProcessorWater(p, Params{Yield: 1, FabEWF: 1})
	if err != nil {
		t.Fatal(err)
	}
	wet, err := ProcessorWater(p, Params{Yield: 1, FabEWF: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := float64(wet-dry), 3*8*factorsAt(7).Energy; math.Abs(got-want) > 1e-9 {
		t.Errorf("WPA should scale linearly with fab EWF: +%v L, want +%v L", got, want)
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
	for _, p := range []Params{{Yield: 0, FabEWF: 2}, {Yield: 1.2, FabEWF: 2}, {Yield: 0.9, FabEWF: -1}} {
		if err := p.Validate(); err == nil {
			t.Errorf("params %+v should be invalid", p)
		}
	}
}

func TestProcessorWaterEq4(t *testing.T) {
	// Hand-compute Eq. 4 for a single-die 7 nm processor.
	p := hardware.Processor{
		Name: "test", Kind: hardware.GPU,
		Dies:    []hardware.Die{{Area: 800, Node: 7, Count: 1}},
		ICCount: 10,
	}
	par := Params{Yield: 0.875, FabEWF: 2.0}
	got, err := ProcessorWater(p, par)
	if err != nil {
		t.Fatal(err)
	}
	perCM2 := 11.5 + 11.0 + 4.5*2.0 // UPW + PCW + WPA at 7nm
	want := 8.0*perCM2/0.875 + 10*0.6
	if math.Abs(float64(got)-want) > 1e-9 {
		t.Errorf("ProcessorWater = %v, want %v", got, want)
	}
}

func TestProcessorWaterYieldScaling(t *testing.T) {
	p := hardware.V100
	lo, _ := ProcessorWater(p, Params{Yield: 0.5, FabEWF: 2})
	hi, _ := ProcessorWater(p, Params{Yield: 1.0, FabEWF: 2})
	// Halving yield roughly doubles manufacturing water (packaging term
	// unaffected).
	pkg := float64(WaterPerIC) * float64(p.ICCount)
	if math.Abs((float64(lo)-pkg)-2*(float64(hi)-pkg)) > 1e-9 {
		t.Errorf("yield scaling broken: %v vs %v", lo, hi)
	}
}

func TestProcessorWaterChiplets(t *testing.T) {
	// EPYC sums its 8 CCDs at 7 nm plus IO die at 14 nm.
	got, err := ProcessorWater(hardware.EPYC7532, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ccd := 0.74 * 8 * (11.5 + 11.0 + 4.5*2)
	io := 4.16 * (8.0 + 8.0 + 3.5*2)
	want := (ccd+io)/0.875 + 9*0.6
	if math.Abs(float64(got)-want) > 1e-6 {
		t.Errorf("EPYC water = %v, want %v", got, want)
	}
}

func TestProcessorWaterRejectsBadInput(t *testing.T) {
	if _, err := ProcessorWater(hardware.V100, Params{Yield: 0}); err == nil {
		t.Error("bad params accepted")
	}
	if _, err := ProcessorWater(hardware.Processor{}, DefaultParams()); err == nil {
		t.Error("bad processor accepted")
	}
}

func TestMemoryAndStorageWater(t *testing.T) {
	if got := MemoryWater(100); float64(got) != 80 {
		t.Errorf("MemoryWater(100GB) = %v, want 80 L", got)
	}
	if got := StorageWater(hardware.HDD, 1000); math.Abs(float64(got)-33) > 1e-9 {
		t.Errorf("HDD water = %v, want 33", got)
	}
	if got := StorageWater(hardware.SSD, 1000); math.Abs(float64(got)-22) > 1e-9 {
		t.Errorf("SSD water = %v, want 22", got)
	}
	if MemoryWater(-5) != 0 || StorageWater(hardware.HDD, -5) != 0 {
		t.Error("negative capacity should clamp to zero")
	}
}

func TestStorageTradeoffTakeaway1(t *testing.T) {
	// Per GB, HDDs must carry more embodied water than SSDs (the inverse
	// of their embodied-carbon ranking).
	if StorageTradeoff() <= 1 {
		t.Errorf("HDD/SSD water ratio = %v, want > 1", StorageTradeoff())
	}
}

func TestComponentsAndStrings(t *testing.T) {
	cs := Components()
	want := []string{"CPU", "GPU", "DRAM", "HDD", "SSD"}
	if len(cs) != len(want) {
		t.Fatalf("component count = %d", len(cs))
	}
	for i, c := range cs {
		if c.String() != want[i] {
			t.Errorf("component %d = %q, want %q", i, c.String(), want[i])
		}
	}
	if Component(99).String() != "component(99)" {
		t.Error("out-of-range component string")
	}
}

func TestSystemBreakdownBasics(t *testing.T) {
	for _, sys := range hardware.Systems() {
		b, err := SystemBreakdown(sys, DefaultParams())
		if err != nil {
			t.Fatalf("%s: %v", sys.Name, err)
		}
		if b.Total() <= 0 {
			t.Errorf("%s: non-positive total", sys.Name)
		}
		sumShares := 0.0
		for _, c := range Components() {
			if b.Of(c) < 0 {
				t.Errorf("%s: negative %v water", sys.Name, c)
			}
			sumShares += b.Share(c)
		}
		if math.Abs(sumShares-1) > 1e-9 {
			t.Errorf("%s: shares sum to %v", sys.Name, sumShares)
		}
		if math.Abs(b.ProcessorShare()+b.MemoryStorageShare()-1) > 1e-9 {
			t.Errorf("%s: share partition broken", sys.Name)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	par := DefaultParams()
	bds, err := AllBreakdowns(par)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Breakdown{}
	for _, b := range bds {
		byName[b.System] = b
	}

	// GPU-rich systems: GPUs are the largest single compute contributor.
	for _, name := range []string{"Marconi", "Polaris"} {
		b := byName[name]
		if b.Of(CompGPU) <= b.Of(CompCPU) {
			t.Errorf("%s: GPU embodied water should exceed CPU", name)
		}
		if b.DominantComponent() != CompGPU {
			t.Errorf("%s: dominant component = %v, want GPU", name, b.DominantComponent())
		}
	}

	// Polaris: GPUs a majority of the embodied footprint (paper: 67 %).
	if s := byName["Polaris"].Share(CompGPU); s < 0.50 || s > 0.75 {
		t.Errorf("Polaris GPU share = %.1f%%, want majority near 67%%", s*100)
	}
	// Polaris all-flash: no HDD water at all.
	if byName["Polaris"].Of(CompHDD) != 0 {
		t.Error("Polaris should have zero HDD embodied water")
	}

	// Marconi, Fugaku, Polaris: memory+storage near 27 %.
	for _, name := range []string{"Marconi", "Fugaku", "Polaris"} {
		s := byName[name].MemoryStorageShare()
		if s < 0.20 || s > 0.36 {
			t.Errorf("%s: memory+storage share = %.1f%%, want ~27%%", name, s*100)
		}
	}

	// Frontier: the 679 PB HDD farm pushes memory+storage above
	// processors (paper: by 24.8 pp).
	fr := byName["Frontier"]
	if fr.MemoryStorageShare() <= fr.ProcessorShare() {
		t.Errorf("Frontier: memory+storage (%.1f%%) should exceed processors (%.1f%%)",
			fr.MemoryStorageShare()*100, fr.ProcessorShare()*100)
	}
	if fr.DominantComponent() != CompHDD {
		t.Errorf("Frontier dominant component = %v, want HDD", fr.DominantComponent())
	}

	// Fugaku has no GPUs.
	if byName["Fugaku"].Of(CompGPU) != 0 {
		t.Error("Fugaku should have zero GPU water")
	}
}

func TestBreakdownScalesWithNodes(t *testing.T) {
	// Doubling the node count doubles processor and DRAM water but leaves
	// the shared storage pools unchanged.
	sys := hardware.Polaris()
	b1, _ := SystemBreakdown(sys, DefaultParams())
	sys.Nodes *= 2
	b2, _ := SystemBreakdown(sys, DefaultParams())
	for _, c := range []Component{CompCPU, CompGPU, CompDRAM} {
		if math.Abs(float64(b2.Of(c))-2*float64(b1.Of(c))) > 1e-6*float64(b1.Of(c)) {
			t.Errorf("%v should double with nodes", c)
		}
	}
	if b2.Of(CompSSD) != b1.Of(CompSSD) {
		t.Error("shared storage water should not scale with nodes")
	}
}

// Property: processor water decreases monotonically with yield.
func TestYieldMonotoneProperty(t *testing.T) {
	f := func(y1, y2 float64) bool {
		a := 0.05 + 0.95*math.Abs(math.Mod(y1, 1))
		b := 0.05 + 0.95*math.Abs(math.Mod(y2, 1))
		if a > b {
			a, b = b, a
		}
		wa, err1 := ProcessorWater(hardware.A100, Params{Yield: a, FabEWF: 2})
		wb, err2 := ProcessorWater(hardware.A100, Params{Yield: b, FabEWF: 2})
		return err1 == nil && err2 == nil && wa >= wb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: memory water is linear in capacity.
func TestMemoryLinearityProperty(t *testing.T) {
	f := func(a, b float64) bool {
		ga := units.GB(math.Abs(math.Mod(a, 1e9)))
		gb := units.GB(math.Abs(math.Mod(b, 1e9)))
		lhs := MemoryWater(ga + gb)
		rhs := MemoryWater(ga) + MemoryWater(gb)
		return math.Abs(float64(lhs-rhs)) <= 1e-6*math.Max(1, float64(lhs))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSystemBreakdownRejectsInvalidSystem(t *testing.T) {
	bad := hardware.Polaris()
	bad.Nodes = -1
	if _, err := SystemBreakdown(bad, DefaultParams()); err == nil {
		t.Error("invalid system accepted")
	}
	if _, err := SystemBreakdown(hardware.Polaris(), Params{Yield: -1}); err == nil {
		t.Error("invalid params accepted")
	}
}
