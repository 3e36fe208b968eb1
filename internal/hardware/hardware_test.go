package hardware

import (
	"math"
	"testing"

	"thirstyflops/internal/units"
)

func TestSystemsValid(t *testing.T) {
	systems := Systems()
	if len(systems) != 4 {
		t.Fatalf("system count = %d, want 4 (Table 1)", len(systems))
	}
	for _, s := range systems {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestTable1Order(t *testing.T) {
	want := []string{"Marconi", "Fugaku", "Polaris", "Frontier"}
	for i, s := range Systems() {
		if s.Name != want[i] {
			t.Errorf("Systems()[%d] = %s, want %s", i, s.Name, want[i])
		}
	}
}

func TestTable1Attributes(t *testing.T) {
	// The concrete rows of Table 1 + the PUE column of Table 2.
	m, _ := SystemByName("Marconi")
	if m.SiteName != "Bologna" || m.StartYear != 2019 || m.PUE != 1.25 {
		t.Errorf("Marconi row mismatch: %+v", m)
	}
	f, _ := SystemByName("Fugaku")
	if f.SiteName != "Kobe" || f.Node.HasGPU() || f.PUE != 1.4 {
		t.Errorf("Fugaku row mismatch")
	}
	p, _ := SystemByName("Polaris")
	if p.SiteName != "Lemont" || p.Node.GPU.Name != "NVIDIA A100 PCIe" || p.PUE != 1.65 {
		t.Errorf("Polaris row mismatch")
	}
	fr, _ := SystemByName("Frontier")
	if fr.SiteName != "Oak Ridge" || fr.Node.GPU.Name != "AMD Instinct MI250X" || fr.PUE != 1.05 {
		t.Errorf("Frontier row mismatch")
	}
	if _, err := SystemByName("Aurora"); err == nil {
		t.Error("unknown system should error")
	}
}

func TestProcessorsValid(t *testing.T) {
	for _, p := range []Processor{Power9, V100, A64FX, EPYC7532, A100, EPYC7A53, MI250X} {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestProcessorValidateRejects(t *testing.T) {
	bad := Processor{Name: "", Dies: []Die{{Area: 100, Node: 7, Count: 1}}, ICCount: 9}
	if err := bad.Validate(); err == nil {
		t.Error("nameless processor accepted")
	}
	bad2 := Processor{Name: "x", ICCount: 9}
	if err := bad2.Validate(); err == nil {
		t.Error("die-less processor accepted")
	}
	bad3 := Processor{Name: "x", Dies: []Die{{Area: 100, Node: 7, Count: 1}}, ICCount: 30}
	if err := bad3.Validate(); err == nil {
		t.Error("IC count above Table 2 bound accepted")
	}
	bad4 := Processor{Name: "x", Dies: []Die{{Area: -5, Node: 7, Count: 1}}, ICCount: 9}
	if err := bad4.Validate(); err == nil {
		t.Error("negative die area accepted")
	}
}

func TestTotalDieArea(t *testing.T) {
	// EPYC: 8 x 74 + 416 = 1008 mm².
	if got := EPYC7532.TotalDieArea(); got != 1008 {
		t.Errorf("EPYC area = %v, want 1008", got)
	}
	// MI250X: 2 x 724 = 1448 mm².
	if got := MI250X.TotalDieArea(); got != 1448 {
		t.Errorf("MI250X area = %v, want 1448", got)
	}
	if got := V100.TotalDieArea(); got != 815 {
		t.Errorf("V100 area = %v, want 815", got)
	}
}

func TestNodeTDPAndHBM(t *testing.T) {
	m := Marconi100()
	// 2*190 + 4*300 + 450 = 2030 W.
	if got := m.Node.TDP(); got != 2030 {
		t.Errorf("Marconi node TDP = %v, want 2030", got)
	}
	// 4 V100 x 16 GB HBM.
	if got := m.Node.HBMGB(); got != 64 {
		t.Errorf("Marconi node HBM = %v, want 64", got)
	}
	f := Fugaku()
	if got := f.Node.HBMGB(); got != 32 {
		t.Errorf("Fugaku node HBM = %v, want 32", got)
	}
	fr := Frontier()
	if got := fr.Node.HBMGB(); got != 512 {
		t.Errorf("Frontier node HBM = %v, want 512 (4x128)", got)
	}
}

func TestTotalDRAM(t *testing.T) {
	fr := Frontier()
	// (512 DDR + 512 HBM) x 9408 nodes.
	want := units.GB(1024 * 9408)
	if got := fr.TotalDRAMGB(); got != want {
		t.Errorf("Frontier DRAM = %v, want %v", got, want)
	}
}

func TestStorageGB(t *testing.T) {
	fr := Frontier()
	if got := fr.StorageGB(HDD); got != units.PBytes(679) {
		t.Errorf("Frontier HDD = %v, want 679 PB", got)
	}
	if got := fr.StorageGB(SSD); got != units.PBytes(11) {
		t.Errorf("Frontier SSD = %v, want 11 PB", got)
	}
	p := Polaris()
	if got := p.StorageGB(HDD); got != 0 {
		t.Errorf("Polaris is all-flash, HDD = %v", got)
	}
}

func TestPowerAt(t *testing.T) {
	s := Polaris()
	idle := s.PowerAt(0)
	peak := s.PowerAt(1)
	if math.Abs(float64(peak)-float64(s.PeakPower)) > 1e-9 {
		t.Errorf("full utilization = %v, want peak %v", peak, s.PeakPower)
	}
	wantIdle := float64(s.PeakPower) * s.IdleFraction
	if math.Abs(float64(idle)-wantIdle) > 1e-9 {
		t.Errorf("idle = %v, want %v", idle, wantIdle)
	}
	mid := s.PowerAt(0.5)
	if mid <= idle || mid >= peak {
		t.Error("midpoint power should be between idle and peak")
	}
	// Out-of-range utilization clamps.
	if s.PowerAt(-1) != idle || s.PowerAt(2) != peak {
		t.Error("utilization should clamp to [0,1]")
	}
}

// TestPowerModelKeepsLinearFormula pins the precomputed model to the
// linear idle-to-peak expression evaluated per call, bit for bit, so
// hoisting it out of the hourly loop moves no assessed year.
func TestPowerModelKeepsLinearFormula(t *testing.T) {
	for _, s := range append(Systems(), OutlookSystems()...) {
		m := s.PowerModel()
		for i := 0; i <= 1000; i++ {
			u := float64(i) / 1000
			idle := float64(s.PeakPower) * s.IdleFraction
			want := idle + (float64(s.PeakPower)-idle)*u
			if got := float64(m.At(u)); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s at %v: model %v, formula %v", s.Name, u, got, want)
			}
		}
	}
}

func TestSystemValidateRejects(t *testing.T) {
	s := Polaris()
	s.PUE = 0.8
	if err := s.Validate(); err == nil {
		t.Error("PUE < 1 accepted")
	}
	s2 := Polaris()
	s2.Nodes = 0
	if err := s2.Validate(); err == nil {
		t.Error("zero nodes accepted")
	}
	s3 := Polaris()
	s3.Storage = []StoragePool{{Name: "x", Kind: SSD, Capacity: 0}}
	if err := s3.Validate(); err == nil {
		t.Error("empty storage pool accepted")
	}
	s4 := Polaris()
	s4.IdleFraction = 1.5
	if err := s4.Validate(); err == nil {
		t.Error("idle fraction > 1 accepted")
	}
}

func TestKindStrings(t *testing.T) {
	if CPU.String() != "CPU" || GPU.String() != "GPU" {
		t.Error("processor kind names wrong")
	}
	if HDD.String() != "HDD" || SSD.String() != "SSD" {
		t.Error("storage kind names wrong")
	}
}

func TestFleetScale(t *testing.T) {
	// Sanity: Fugaku is by far the largest node count; Frontier the
	// largest storage.
	f, _ := SystemByName("Fugaku")
	fr, _ := SystemByName("Frontier")
	for _, s := range Systems() {
		if s.Name != "Fugaku" && s.Nodes >= f.Nodes {
			t.Errorf("%s node count exceeds Fugaku", s.Name)
		}
		if s.Name != "Frontier" && s.StorageGB(HDD)+s.StorageGB(SSD) >= fr.StorageGB(HDD) {
			t.Errorf("%s storage exceeds Frontier's Orion", s.Name)
		}
	}
}
