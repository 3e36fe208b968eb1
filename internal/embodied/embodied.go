// Package embodied implements the embodied water footprint model of the
// paper's Sec. 2.1 (Eq. 2-5): the one-time water consumed manufacturing
// and packaging an HPC system's hardware.
//
//	W_embodied = W_pkg + W_mfg                              (Eq. 2)
//	W_pkg      = Σ_devices W_IC · N_IC                      (Eq. 3)
//	W_mfg^proc = A_die · (UPW + PCW + WPA) / Yield          (Eq. 4)
//	W_mfg^mem  = WPC · Capacity                             (Eq. 5)
//
// UPW (ultrapure water), PCW (process cooling water) and the per-area
// manufacturing energy are tabulated by process node following the PPACE
// methodology the paper cites [10]; WPA is the manufacturing energy times
// the EWF of the grid powering the fab, so it varies with both process
// node and fab location as Table 2 specifies.
package embodied

import (
	"fmt"

	"thirstyflops/internal/fingerprint"
	"thirstyflops/internal/hardware"
	"thirstyflops/internal/units"
)

// Water-per-capacity factors (Table 2): DRAM dominates per-GB because of
// its dense lithography; HDDs exceed SSDs per GB because of wet extraction
// and processing of magnets, lubricants, and precious metals (Takeaway 1's
// carbon/water inversion).
const (
	WPCDRAM units.LPerGB = 0.8
	WPCHDD  units.LPerGB = 0.033
	WPCSSD  units.LPerGB = 0.022
)

// WaterPerIC is the packaging water overhead per integrated circuit
// (Table 2, from assembly-house sustainability reports).
const WaterPerIC units.Liters = 0.6

// DefaultYield is the Table 2 default fab yield rate.
const DefaultYield = 0.875

// DefaultFabEWF is the energy water factor of the grid powering a typical
// fab (gas/coal-heavy East-Asian grids).
const DefaultFabEWF units.LPerKWh = 2.0

// nodeFactor tabulates per-die-area water factors by process node. Smaller
// nodes need more ultrapure water and more energy per cm² (more patterning
// steps), so factors grow as nodes shrink. Units: L/cm² for UPW and PCW,
// kWh/cm² for Energy.
type nodeFactor struct {
	Node   units.Nanometers
	UPW    float64
	PCW    float64
	Energy float64
}

// nodeFactors is sorted by descending node size (oldest first). The UPW
// column spans Table 2's 5.9-14.2 L range.
var nodeFactors = []nodeFactor{
	{28, 5.9, 6.0, 2.50},
	{14, 8.0, 8.0, 3.50},
	{12, 8.5, 9.0, 3.75},
	{7, 11.5, 11.0, 4.50},
	{6, 12.0, 11.5, 4.75},
	{5, 13.5, 12.5, 5.25},
	{3, 14.2, 13.5, 5.75},
}

// factorsAt interpolates the node factor table at an arbitrary process
// node, clamping outside the covered 3-28 nm span.
func factorsAt(node units.Nanometers) nodeFactor {
	n := float64(node)
	if n >= float64(nodeFactors[0].Node) {
		f := nodeFactors[0]
		f.Node = node
		return f
	}
	last := nodeFactors[len(nodeFactors)-1]
	if n <= float64(last.Node) {
		f := last
		f.Node = node
		return f
	}
	// Table is descending in node size; find the bracketing pair.
	for i := 1; i < len(nodeFactors); i++ {
		hi, lo := nodeFactors[i-1], nodeFactors[i] // hi.Node > lo.Node
		if n <= float64(hi.Node) && n >= float64(lo.Node) {
			t := (float64(hi.Node) - n) / (float64(hi.Node) - float64(lo.Node))
			return nodeFactor{
				Node:   node,
				UPW:    lerp(hi.UPW, lo.UPW, t),
				PCW:    lerp(hi.PCW, lo.PCW, t),
				Energy: lerp(hi.Energy, lo.Energy, t),
			}
		}
	}
	return last // unreachable with a well-formed table
}

func lerp(a, b, t float64) float64 { return a + (b-a)*t }

// UPW returns the ultrapure-water factor at a process node (L/cm²).
func UPW(node units.Nanometers) units.LPerSqCM {
	return units.LPerSqCM(factorsAt(node).UPW)
}

// PCW returns the process-cooling-water factor at a node (L/cm²).
func PCW(node units.Nanometers) units.LPerSqCM {
	return units.LPerSqCM(factorsAt(node).PCW)
}

// Params configures the embodied model.
type Params struct {
	// Yield is the fab yield rate in (0, 1] (Eq. 4's 1/Yield scaling).
	Yield float64
	// FabEWF is the energy water factor of the grid powering the fabs,
	// entering the WPA term.
	FabEWF units.LPerKWh
}

// DefaultParams returns the Table 2 defaults.
func DefaultParams() Params {
	return Params{Yield: DefaultYield, FabEWF: DefaultFabEWF}
}

// Fingerprint writes both embodied parameters.
func (p Params) Fingerprint(h *fingerprint.Hasher) {
	h.Float(p.Yield)
	h.Float(float64(p.FabEWF))
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Yield <= 0 || p.Yield > 1 {
		return fmt.Errorf("embodied: yield %v outside (0,1]", p.Yield)
	}
	if p.FabEWF < 0 {
		return fmt.Errorf("embodied: negative fab EWF %v", p.FabEWF)
	}
	return nil
}

// ProcessorWater evaluates Eq. 4 for one processor package, summing over
// its dies (chiplet packages mix process nodes) and adding the Eq. 3
// packaging term. On-package HBM is excluded here — it is DRAM silicon and
// is accounted by MemoryWater so component breakdowns stay comparable
// across package-integrated (A64FX) and socketed designs.
func ProcessorWater(p hardware.Processor, par Params) (units.Liters, error) {
	if err := par.Validate(); err != nil {
		return 0, err
	}
	if err := p.Validate(); err != nil {
		return 0, err
	}
	var mfg float64
	for _, d := range p.Dies {
		f := factorsAt(d.Node)
		perCM2 := f.UPW + f.PCW + f.Energy*float64(par.FabEWF)
		mfg += d.Area.SquareCM() * float64(d.Count) * perCM2
	}
	mfg /= par.Yield
	pkg := float64(WaterPerIC) * float64(p.ICCount)
	return units.Liters(mfg + pkg), nil
}

// MemoryWater evaluates Eq. 5 for DRAM capacity.
func MemoryWater(capacity units.GB) units.Liters {
	if capacity < 0 {
		capacity = 0
	}
	return units.Liters(float64(WPCDRAM) * float64(capacity))
}

// StorageWater evaluates Eq. 5 for a storage capacity of the given kind.
func StorageWater(kind hardware.StorageKind, capacity units.GB) units.Liters {
	if capacity < 0 {
		capacity = 0
	}
	wpc := WPCHDD
	if kind == hardware.SSD {
		wpc = WPCSSD
	}
	return units.Liters(float64(wpc) * float64(capacity))
}

// Component identifies one hardware class in the Fig. 3 breakdown.
type Component int

// Breakdown components, in Fig. 3 legend order.
const (
	CompCPU Component = iota
	CompGPU
	CompDRAM
	CompHDD
	CompSSD
	numComponents
)

// String names the component as in Fig. 3's legend.
func (c Component) String() string {
	switch c {
	case CompCPU:
		return "CPU"
	case CompGPU:
		return "GPU"
	case CompDRAM:
		return "DRAM"
	case CompHDD:
		return "HDD"
	case CompSSD:
		return "SSD"
	}
	return fmt.Sprintf("component(%d)", int(c))
}

// Components lists all breakdown components in legend order.
func Components() []Component {
	out := make([]Component, numComponents)
	for i := range out {
		out[i] = Component(i)
	}
	return out
}

// Breakdown is the per-component embodied water of a system (Fig. 3).
type Breakdown struct {
	System string
	Water  [numComponents]units.Liters
}

// Total sums all components.
func (b Breakdown) Total() units.Liters {
	var t units.Liters
	for _, w := range b.Water {
		t += w
	}
	return t
}

// Of returns one component's water.
func (b Breakdown) Of(c Component) units.Liters { return b.Water[c] }

// Share returns one component's fraction of the total (0 when empty).
func (b Breakdown) Share(c Component) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return float64(b.Water[c]) / float64(t)
}

// Shares maps each component's name (Component.String) to its Share —
// the embodied_shares of an assessment result.
func (b Breakdown) Shares() map[string]float64 {
	out := make(map[string]float64, numComponents)
	for c := CompCPU; c < numComponents; c++ {
		out[c.String()] = b.Share(c)
	}
	return out
}

// ProcessorShare is the combined CPU+GPU fraction.
func (b Breakdown) ProcessorShare() float64 {
	return b.Share(CompCPU) + b.Share(CompGPU)
}

// MemoryStorageShare is the combined DRAM+HDD+SSD fraction — the quantity
// the paper compares against processors for Frontier (Takeaway 1).
func (b Breakdown) MemoryStorageShare() float64 {
	return b.Share(CompDRAM) + b.Share(CompHDD) + b.Share(CompSSD)
}

// DominantComponent returns the single largest component.
func (b Breakdown) DominantComponent() Component {
	best := CompCPU
	for c := CompCPU; c < numComponents; c++ {
		if b.Water[c] > b.Water[best] {
			best = c
		}
	}
	return best
}

// SystemBreakdown computes the Fig. 3 embodied-water breakdown of a
// system: per-node processor water (Eq. 3+4) scaled by node count, fleet
// DRAM including on-package HBM, and the shared storage pools (Eq. 5).
func SystemBreakdown(s hardware.System, par Params) (Breakdown, error) {
	if err := s.Validate(); err != nil {
		return Breakdown{}, err
	}
	b := Breakdown{System: s.Name}

	if s.Node.HasCPU() {
		cpuW, err := ProcessorWater(s.Node.CPU, par)
		if err != nil {
			return Breakdown{}, err
		}
		b.Water[CompCPU] = cpuW * units.Liters(s.Node.CPUs*s.Nodes)
	}

	if s.Node.HasGPU() {
		gpuW, err := ProcessorWater(s.Node.GPU, par)
		if err != nil {
			return Breakdown{}, err
		}
		b.Water[CompGPU] = gpuW * units.Liters(s.Node.GPUs*s.Nodes)
	}

	b.Water[CompDRAM] = MemoryWater(s.TotalDRAMGB())
	b.Water[CompHDD] = StorageWater(hardware.HDD, s.StorageGB(hardware.HDD))
	b.Water[CompSSD] = StorageWater(hardware.SSD, s.StorageGB(hardware.SSD))
	return b, nil
}

// AllBreakdowns computes Fig. 3 for every Table 1 system.
func AllBreakdowns(par Params) ([]Breakdown, error) {
	systems := hardware.Systems()
	out := make([]Breakdown, 0, len(systems))
	for _, s := range systems {
		b, err := SystemBreakdown(s, par)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// StorageTradeoff quantifies Takeaway 1: the embodied-water ratio of
// storing one GB on HDD vs SSD. The paper stresses this is the inverse of
// the embodied-carbon ranking.
func StorageTradeoff() float64 { return float64(WPCHDD) / float64(WPCSSD) }

// Embodied carbon factors per capacity (kgCO2e/GB), from the same vendor
// sustainability reports as the WPC water factors. NAND flash fabrication
// is energy-intense, so SSDs carry roughly 8x the embodied carbon of HDDs
// per GB — the exact opposite of their water ranking. This is the paper's
// Takeaway 1: components rank differently on different sustainability
// metrics.
const (
	CPCHDD = 0.02 // kgCO2e per GB
	CPCSSD = 0.16
)

// StorageCarbonTradeoff is the HDD/SSD embodied-carbon ratio per GB. Its
// being below 1 while StorageTradeoff is above 1 is the carbon/water
// inversion of Takeaway 1.
func StorageCarbonTradeoff() float64 { return CPCHDD / CPCSSD }

// StorageMetricsInverted reports whether the bundled factors exhibit the
// Takeaway 1 inversion (water favors SSD while carbon favors HDD).
func StorageMetricsInverted() bool {
	return StorageTradeoff() > 1 && StorageCarbonTradeoff() < 1
}
