// Package hardware is the component catalog behind the embodied-water
// model: processor dies (area, process node, fab site), memory and storage
// devices, node configurations, and the four supercomputers of the paper's
// Table 1. All specs are public vendor/WikiChip numbers.
package hardware

import (
	"fmt"
	"slices"

	"thirstyflops/internal/fingerprint"
	"thirstyflops/internal/units"
)

// Fab identifies a semiconductor manufacturing site. The fab's location
// determines the water-scarcity weighting of the embodied footprint and
// the EWF of the energy consumed during manufacturing (WPA).
type Fab struct {
	Name string // e.g. "TSMC"
	Site string // wsi site key, e.g. "Hsinchu"
}

// Known fabs.
var (
	FabTSMC            = Fab{Name: "TSMC", Site: "Hsinchu"}
	FabGlobalFoundries = Fab{Name: "GlobalFoundries", Site: "Malta NY"}
	FabSKHynix         = Fab{Name: "SK hynix", Site: "Icheon"}
	FabMicron          = Fab{Name: "Micron", Site: "Boise"}
)

// ProcessorKind distinguishes CPUs from accelerators in breakdowns.
type ProcessorKind int

// Processor kinds.
const (
	CPU ProcessorKind = iota
	GPU
)

// String names the processor kind.
func (k ProcessorKind) String() string {
	if k == GPU {
		return "GPU"
	}
	return "CPU"
}

// Die is one silicon die within a processor package. Chiplet processors
// (EPYC) carry compute dies and an IO die on different process nodes.
type Die struct {
	Area  units.SquareMM
	Node  units.Nanometers
	Count int // identical dies per package
}

// Processor is a CPU or GPU package.
type Processor struct {
	Name string
	Kind ProcessorKind
	Dies []Die
	TDP  units.Watts
	Fab  Fab
	// HBMGB is on-package high-bandwidth memory; its embodied water is
	// accounted under the DRAM component (it is DRAM silicon).
	HBMGB units.GB
	// ICCount is the number of discrete integrated circuits in the package
	// for the packaging-water term (Eq. 3); Table 2 bounds it at 9-26.
	ICCount int
}

// TotalDieArea sums the silicon area of the package.
func (p Processor) TotalDieArea() units.SquareMM {
	var total units.SquareMM
	for _, d := range p.Dies {
		total += d.Area * units.SquareMM(d.Count)
	}
	return total
}

// Validate checks processor plausibility, including the Table 2 IC bound.
func (p Processor) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("hardware: processor has no name")
	case len(p.Dies) == 0:
		return fmt.Errorf("hardware: %s has no dies", p.Name)
	case p.ICCount < 1 || p.ICCount > 26:
		return fmt.Errorf("hardware: %s IC count %d outside Table 2 range 1-26", p.Name, p.ICCount)
	}
	for _, d := range p.Dies {
		if d.Area <= 0 || d.Count <= 0 || d.Node <= 0 {
			return fmt.Errorf("hardware: %s has invalid die %+v", p.Name, d)
		}
	}
	return nil
}

// Clone returns p with a Dies slice of its own, so a system built from a
// catalog processor can be edited without writing through to the catalog.
func (p Processor) Clone() Processor {
	p.Dies = slices.Clone(p.Dies)
	return p
}

// Catalog processors (vendor/WikiChip published specs). System
// constructors take Clones of them.
var (
	// IBM POWER9 (Marconi100 AC922 host CPU), 14 nm GlobalFoundries.
	Power9 = Processor{
		Name: "IBM POWER9", Kind: CPU,
		Dies: []Die{{Area: 695, Node: 14, Count: 1}},
		TDP:  190, Fab: FabGlobalFoundries, ICCount: 9,
	}
	// NVIDIA V100 SXM2 (Marconi100 accelerator), 12 nm TSMC, 16 GB HBM2.
	V100 = Processor{
		Name: "NVIDIA V100 SXM2", Kind: GPU,
		Dies: []Die{{Area: 815, Node: 12, Count: 1}},
		TDP:  300, Fab: FabTSMC, HBMGB: 16, ICCount: 13,
	}
	// Fujitsu A64FX (Fugaku), 7 nm TSMC, 32 GB on-package HBM2.
	A64FX = Processor{
		Name: "Fujitsu A64FX", Kind: CPU,
		Dies: []Die{{Area: 396, Node: 7, Count: 1}},
		TDP:  170, Fab: FabTSMC, HBMGB: 32, ICCount: 12,
	}
	// AMD EPYC 7532 (Polaris host), 7 nm CCDs + 14 nm IO die.
	EPYC7532 = Processor{
		Name: "AMD EPYC 7532", Kind: CPU,
		Dies: []Die{
			{Area: 74, Node: 7, Count: 8},
			{Area: 416, Node: 14, Count: 1},
		},
		TDP: 200, Fab: FabTSMC, ICCount: 9,
	}
	// NVIDIA A100 PCIe 40 GB (Polaris accelerator), 7 nm TSMC.
	A100 = Processor{
		Name: "NVIDIA A100 PCIe", Kind: GPU,
		Dies: []Die{{Area: 826, Node: 7, Count: 1}},
		TDP:  250, Fab: FabTSMC, HBMGB: 40, ICCount: 13,
	}
	// AMD EPYC 7A53 "Trento" (Frontier host), 7 nm CCDs + 14 nm IO die.
	EPYC7A53 = Processor{
		Name: "AMD EPYC 7A53", Kind: CPU,
		Dies: []Die{
			{Area: 74, Node: 7, Count: 8},
			{Area: 416, Node: 14, Count: 1},
		},
		TDP: 280, Fab: FabTSMC, ICCount: 9,
	}
	// AMD Instinct MI250X (Frontier accelerator), two 6 nm GCDs,
	// 128 GB HBM2e.
	MI250X = Processor{
		Name: "AMD Instinct MI250X", Kind: GPU,
		Dies: []Die{{Area: 724, Node: 6, Count: 2}},
		TDP:  560, Fab: FabTSMC, HBMGB: 128, ICCount: 18,
	}
)

// StorageKind distinguishes storage technologies; they differ sharply in
// water per capacity (Takeaway 1).
type StorageKind int

// Storage kinds.
const (
	HDD StorageKind = iota
	SSD
)

// String names the storage kind.
func (k StorageKind) String() string {
	if k == SSD {
		return "SSD"
	}
	return "HDD"
}

// StoragePool is a shared filesystem tier attributed to the system.
type StoragePool struct {
	Name     string
	Kind     StorageKind
	Capacity units.GB
}

// Node is one compute node's hardware complement. APU-only designs
// (El Capitan's MI300A) carry zero discrete CPUs: the host cores live
// inside the accelerator package.
type Node struct {
	CPUs      int
	CPU       Processor
	GPUs      int
	GPU       Processor // zero-value Processor means no accelerator
	DRAMGB    units.GB  // node main memory (DDR); HBM comes from packages
	OverheadW units.Watts
}

// HasCPU reports whether the node carries discrete CPU packages.
func (n Node) HasCPU() bool { return n.CPUs > 0 }

// HasGPU reports whether the node carries accelerators.
func (n Node) HasGPU() bool { return n.GPUs > 0 }

// TDP is the aggregate node thermal design power.
func (n Node) TDP() units.Watts {
	total := n.OverheadW
	if n.HasCPU() {
		total += units.Watts(n.CPUs) * n.CPU.TDP
	}
	if n.HasGPU() {
		total += units.Watts(n.GPUs) * n.GPU.TDP
	}
	return total
}

// HBMGB is the total on-package memory of the node.
func (n Node) HBMGB() units.GB {
	var total units.GB
	if n.HasCPU() {
		total += units.GB(n.CPUs) * n.CPU.HBMGB
	}
	if n.HasGPU() {
		total += units.GB(n.GPUs) * n.GPU.HBMGB
	}
	return total
}

// System is one of the supercomputers of Table 1.
type System struct {
	Name      string
	Operator  string
	SiteName  string // weather.Site key
	Region    string // energy.Region key
	StartYear int

	Nodes   int
	Node    Node
	Storage []StoragePool

	// PeakPower is the measured full-system IT power (TOP500 HPL run),
	// used to anchor utilization-driven energy estimates; the TDP sum
	// overstates real draw.
	PeakPower units.Watts
	// RmaxPFLOPS is the measured HPL performance in PFLOP/s, used by the
	// Water500 efficiency ranking (paper Sec. 6b).
	RmaxPFLOPS float64
	// IdleFraction is the fraction of peak drawn at zero utilization.
	IdleFraction float64
	PUE          units.PUE
}

// Fingerprint writes every field of the system definition, recursing
// through the node, processor, die, fab, and storage structures.
func (s System) Fingerprint(h *fingerprint.Hasher) {
	h.String(s.Name)
	h.String(s.Operator)
	h.String(s.SiteName)
	h.String(s.Region)
	h.Int(s.StartYear)
	h.Int(s.Nodes)
	s.Node.Fingerprint(h)
	h.Len(len(s.Storage))
	for _, p := range s.Storage {
		h.String(p.Name)
		h.Int(int(p.Kind))
		h.Float(float64(p.Capacity))
	}
	h.Float(float64(s.PeakPower))
	h.Float(s.RmaxPFLOPS)
	h.Float(s.IdleFraction)
	h.Float(float64(s.PUE))
}

// Fingerprint writes the node's hardware complement.
func (n Node) Fingerprint(h *fingerprint.Hasher) {
	h.Int(n.CPUs)
	n.CPU.Fingerprint(h)
	h.Int(n.GPUs)
	n.GPU.Fingerprint(h)
	h.Float(float64(n.DRAMGB))
	h.Float(float64(n.OverheadW))
}

// Fingerprint writes the processor package definition.
func (p Processor) Fingerprint(h *fingerprint.Hasher) {
	h.String(p.Name)
	h.Int(int(p.Kind))
	h.Len(len(p.Dies))
	for _, d := range p.Dies {
		h.Float(float64(d.Area))
		h.Float(float64(d.Node))
		h.Int(d.Count)
	}
	h.Float(float64(p.TDP))
	h.String(p.Fab.Name)
	h.String(p.Fab.Site)
	h.Float(float64(p.HBMGB))
	h.Int(p.ICCount)
}

// Validate checks the system definition.
func (s System) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("hardware: system has no name")
	case s.Nodes <= 0:
		return fmt.Errorf("hardware: %s has %d nodes", s.Name, s.Nodes)
	case !s.PUE.Valid():
		return fmt.Errorf("hardware: %s PUE %v < 1", s.Name, s.PUE)
	case s.PeakPower <= 0:
		return fmt.Errorf("hardware: %s has no peak power", s.Name)
	case s.IdleFraction < 0 || s.IdleFraction > 1:
		return fmt.Errorf("hardware: %s idle fraction %v out of range", s.Name, s.IdleFraction)
	}
	if s.Node.HasCPU() {
		if err := s.Node.CPU.Validate(); err != nil {
			return err
		}
	}
	if !s.Node.HasCPU() && !s.Node.HasGPU() {
		return fmt.Errorf("hardware: %s node carries no processors", s.Name)
	}
	if s.Node.HasGPU() {
		if err := s.Node.GPU.Validate(); err != nil {
			return err
		}
	}
	for _, p := range s.Storage {
		if p.Capacity <= 0 {
			return fmt.Errorf("hardware: %s storage pool %s has no capacity", s.Name, p.Name)
		}
	}
	return nil
}

// TotalDRAMGB is the fleet main-memory capacity (DDR plus on-package HBM;
// both are DRAM silicon for embodied accounting).
func (s System) TotalDRAMGB() units.GB {
	perNode := s.Node.DRAMGB + s.Node.HBMGB()
	return perNode * units.GB(s.Nodes)
}

// StorageGB sums the capacity of pools of one kind.
func (s System) StorageGB(kind StorageKind) units.GB {
	var total units.GB
	for _, p := range s.Storage {
		if p.Kind == kind {
			total += p.Capacity
		}
	}
	return total
}

// PowerAt estimates instantaneous IT power at a utilization in [0,1] with
// the standard linear idle-to-peak model.
func (s System) PowerAt(utilization float64) units.Watts {
	return s.PowerModel().At(utilization)
}

// PowerModel is a system's linear idle-to-peak power model with its idle
// draw and idle-to-peak span computed once, so an hourly loop prices each
// hour without copying the System.
type PowerModel struct {
	idle, span float64
}

// PowerModel returns the power model PowerAt evaluates.
func (s System) PowerModel() PowerModel {
	idle := float64(s.PeakPower) * s.IdleFraction
	return PowerModel{idle: idle, span: float64(s.PeakPower) - idle}
}

// At is the IT power at a utilization, clamped to [0,1].
func (m PowerModel) At(utilization float64) units.Watts {
	if utilization < 0 {
		utilization = 0
	}
	if utilization > 1 {
		utilization = 1
	}
	return units.Watts(m.idle + m.span*utilization)
}

// Marconi100 returns CINECA's Marconi100 (Bologna, 2019): IBM POWER9 +
// NVIDIA V100, GPFS disk storage.
func Marconi100() System {
	return System{
		Name: "Marconi", Operator: "CINECA", SiteName: "Bologna",
		Region: "Italy", StartYear: 2019,
		Nodes: 980,
		Node: Node{
			CPUs: 2, CPU: Power9.Clone(),
			GPUs: 4, GPU: V100.Clone(),
			DRAMGB: 256, OverheadW: 450,
		},
		Storage: []StoragePool{
			{Name: "GPFS scratch", Kind: HDD, Capacity: units.PBytes(8)},
		},
		PeakPower: units.MW(2.0), IdleFraction: 0.35, PUE: 1.25,
		RmaxPFLOPS: 21.6,
	}
}

// Fugaku returns RIKEN's Fugaku (Kobe, 2020): A64FX only, FEFS disk tiers
// plus an SSD burst layer.
func Fugaku() System {
	return System{
		Name: "Fugaku", Operator: "RIKEN CCS", SiteName: "Kobe",
		Region: "Japan", StartYear: 2020,
		Nodes: 158976,
		Node: Node{
			CPUs: 1, CPU: A64FX.Clone(),
			DRAMGB: 0, OverheadW: 40,
		},
		Storage: []StoragePool{
			{Name: "FEFS 2nd layer", Kind: HDD, Capacity: units.PBytes(150)},
			{Name: "LLIO SSD 1st layer", Kind: SSD, Capacity: units.PBytes(16)},
		},
		PeakPower: units.MW(29.0), IdleFraction: 0.30, PUE: 1.4,
		RmaxPFLOPS: 442.0,
	}
}

// Polaris returns Argonne's Polaris (Lemont, 2021): EPYC + A100 with
// all-flash storage (the configuration the paper credits for its low
// storage water footprint).
func Polaris() System {
	return System{
		Name: "Polaris", Operator: "Argonne National Lab", SiteName: "Lemont",
		Region: "Illinois", StartYear: 2021,
		Nodes: 560,
		Node: Node{
			CPUs: 1, CPU: EPYC7532.Clone(),
			GPUs: 4, GPU: A100.Clone(),
			DRAMGB: 512, OverheadW: 500,
		},
		Storage: []StoragePool{
			{Name: "all-flash scratch", Kind: SSD, Capacity: units.PBytes(2)},
		},
		PeakPower: units.MW(1.8), IdleFraction: 0.35, PUE: 1.65,
		RmaxPFLOPS: 25.8,
	}
}

// Frontier returns ORNL's Frontier (Oak Ridge, 2021): EPYC + MI250X with
// the 679 PB HDD-based Orion filesystem that dominates its embodied water.
func Frontier() System {
	return System{
		Name: "Frontier", Operator: "Oak Ridge National Laboratory",
		SiteName: "Oak Ridge", Region: "Tennessee", StartYear: 2021,
		Nodes: 9408,
		Node: Node{
			CPUs: 1, CPU: EPYC7A53.Clone(),
			GPUs: 4, GPU: MI250X.Clone(),
			DRAMGB: 512, OverheadW: 500,
		},
		Storage: []StoragePool{
			{Name: "Orion HDD", Kind: HDD, Capacity: units.PBytes(679)},
			{Name: "Orion NVMe", Kind: SSD, Capacity: units.PBytes(11)},
		},
		PeakPower: units.MW(21.0), IdleFraction: 0.30, PUE: 1.05,
		RmaxPFLOPS: 1194.0,
	}
}

// paperSystems lists the Table 1 system constructors in table order.
var paperSystems = []func() System{Marconi100, Fugaku, Polaris, Frontier}

// Systems returns the four paper systems in Table 1 order.
func Systems() []System { return build(paperSystems) }

// build calls each constructor in order.
func build(ctors []func() System) []System {
	out := make([]System, len(ctors))
	for i, ctor := range ctors {
		out[i] = ctor()
	}
	return out
}

// Name→constructor tables built once from the constructor lists:
// paperByName holds the Table 1 systems, anyByName adds the outlook ones.
var (
	paperByName = index(paperSystems)
	anyByName   = index(paperSystems, outlookSystems)
)

// index maps each constructor's system name to the constructor.
func index(lists ...[]func() System) map[string]func() System {
	out := make(map[string]func() System)
	for _, list := range lists {
		for _, ctor := range list {
			out[ctor().Name] = ctor
		}
	}
	return out
}

// lookup builds the named system from byName, constructing no other.
func lookup(byName map[string]func() System, name string) (System, error) {
	ctor, ok := byName[name]
	if !ok {
		return System{}, fmt.Errorf("hardware: unknown system %q", name)
	}
	return ctor(), nil
}

// SystemByName looks up one of the paper systems.
func SystemByName(name string) (System, error) { return lookup(paperByName, name) }
