package hardware

import "thirstyflops/internal/units"

// Outlook systems: the paper's Sec. 6(b) names Aurora and El Capitan as
// the next systems ThirstyFLOPS should cover "with available or
// approximated parameters". Their specs below are public approximations
// (WikiChip / TOP500); they are kept separate from the four Table 1
// systems so the paper's figures stay exactly reproducible.

// Catalog processors for the outlook systems.
var (
	// Intel Xeon Max 9470 (Aurora host): Sapphire Rapids HBM, four
	// compute tiles on Intel 7 (~7 nm class), 64 GB on-package HBM2e.
	XeonMax = Processor{
		Name: "Intel Xeon Max 9470", Kind: CPU,
		Dies: []Die{{Area: 393, Node: 7, Count: 4}},
		TDP:  350, Fab: FabGlobalFoundries, HBMGB: 64, ICCount: 16,
	}
	// Intel Data Center GPU Max 1550 (Aurora accelerator): Ponte Vecchio,
	// two base tiles plus sixteen 5 nm compute tiles, 128 GB HBM2e.
	Max1550 = Processor{
		Name: "Intel Max 1550", Kind: GPU,
		Dies: []Die{
			{Area: 640, Node: 7, Count: 2},
			{Area: 41, Node: 5, Count: 16},
		},
		TDP: 600, Fab: FabTSMC, HBMGB: 128, ICCount: 26,
	}
	// AMD Instinct MI300A (El Capitan APU): nine 5 nm compute/CPU
	// chiplets on four 6 nm IO dies, 128 GB HBM3; host cores live in the
	// package, so nodes carry no discrete CPU.
	MI300A = Processor{
		Name: "AMD Instinct MI300A", Kind: GPU,
		Dies: []Die{
			{Area: 115, Node: 5, Count: 9},
			{Area: 140, Node: 6, Count: 4},
		},
		TDP: 550, Fab: FabTSMC, HBMGB: 128, ICCount: 24,
	}
)

// Aurora returns Argonne's Aurora (Lemont, 2023): Xeon Max + six Ponte
// Vecchio GPUs per node with the DAOS all-flash store.
func Aurora() System {
	return System{
		Name: "Aurora", Operator: "Argonne National Lab", SiteName: "Lemont",
		Region: "Illinois", StartYear: 2023,
		Nodes: 10624,
		Node: Node{
			CPUs: 2, CPU: XeonMax.Clone(),
			GPUs: 6, GPU: Max1550.Clone(),
			DRAMGB: 1024, OverheadW: 800,
		},
		Storage: []StoragePool{
			{Name: "DAOS", Kind: SSD, Capacity: units.PBytes(230)},
		},
		PeakPower: units.MW(38.7), RmaxPFLOPS: 1012,
		IdleFraction: 0.30, PUE: 1.35,
	}
}

// ElCapitan returns LLNL's El Capitan (Livermore, 2024): four MI300A
// APUs per node — no discrete host CPUs.
func ElCapitan() System {
	return System{
		Name: "El Capitan", Operator: "Lawrence Livermore National Laboratory",
		SiteName: "Livermore", Region: "California", StartYear: 2024,
		Nodes: 11136,
		Node: Node{
			GPUs: 4, GPU: MI300A.Clone(),
			DRAMGB: 0, OverheadW: 500,
		},
		Storage: []StoragePool{
			{Name: "Rabbit near-node flash", Kind: SSD, Capacity: units.PBytes(45)},
			{Name: "Lustre HDD", Kind: HDD, Capacity: units.PBytes(90)},
		},
		PeakPower: units.MW(29.6), RmaxPFLOPS: 1742,
		IdleFraction: 0.30, PUE: 1.1,
	}
}

// outlookSystems lists the Sec. 6(b) system constructors in announcement
// order.
var outlookSystems = []func() System{Aurora, ElCapitan}

// OutlookSystems returns the Sec. 6(b) systems in announcement order.
func OutlookSystems() []System { return build(outlookSystems) }

// AnySystemByName looks up a system across the Table 1 set and the
// outlook set.
func AnySystemByName(name string) (System, error) { return lookup(anyByName, name) }
