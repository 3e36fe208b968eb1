package experiments

import (
	"fmt"
	"strings"

	"thirstyflops/internal/core"
	"thirstyflops/internal/hardware"
	"thirstyflops/internal/report"
)

// Table1 regenerates the paper's Table 1: the supercomputers used in the
// water footprint analysis.
func Table1() (Output, error) {
	t := report.NewTable("Table 1: Supercomputers used in water footprint analysis",
		"Name", "Location", "Operator", "CPU", "GPU", "Start Year", "Nodes", "PUE")
	for _, s := range hardware.Systems() {
		gpu := "No GPU"
		if s.Node.HasGPU() {
			gpu = s.Node.GPU.Name
		}
		t.AddRow(
			s.Name,
			s.SiteName,
			s.Operator,
			s.Node.CPU.Name,
			gpu,
			fmt.Sprintf("%d", s.StartYear),
			fmt.Sprintf("%d", s.Nodes),
			fmt.Sprintf("%.2f", float64(s.PUE)),
		)
	}
	return Output{ID: "table1", Title: "Systems under study", Text: t.String()}, nil
}

// Table2 regenerates the parameter checklist of the paper's Table 2.
func Table2() (Output, error) {
	var b strings.Builder
	for _, group := range []string{"embodied", "operational"} {
		t := report.NewTable(
			fmt.Sprintf("Table 2 (%s): parameters for estimating the water footprint", group),
			"Parameter", "Description", "Kind", "Data Range", "Source", "Unit")
		for _, p := range core.Table2() {
			if p.Group != group {
				continue
			}
			kind := "input"
			if p.Derived {
				kind = "derived"
			}
			t.AddRow(p.Name, p.Description, kind, p.Range, p.Source, p.Unit)
		}
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	b.WriteString(fmt.Sprintf("inputs: %d, derived: %d\n",
		len(core.Table2Inputs()), len(core.Table2Derived())))
	return Output{ID: "table2", Title: "Parameter checklist", Text: b.String()}, nil
}

// Table3 regenerates the withdrawal parameter table and demonstrates the
// Sec. 6 withdrawal model on an assessed system.
func Table3() (Output, error) {
	var b strings.Builder
	t := report.NewTable("Table 3: parameters for water withdrawal",
		"Parameter", "Description", "Data Range")
	rows := [][3]string{
		{"W_actual_discharge", "Reported discharge water footprint", "vary across systems"},
		{"L_k", "Outfall location factor", "vary across HPC locations"},
		{"P_j", "Pollutant hazard factor", "vary across pollutants"},
		{"rho", "Water reuse rate", "0%-100%"},
		{"beta_potable/non-potable", "Percentage of potable/non-potable water", "0%-100%"},
		{"S_potable/S_non-potable", "Scarcity factor (potable / non-potable)", "vary across water sources"},
	}
	for _, r := range rows {
		t.AddRow(r[0], r[1], r[2])
	}
	b.WriteString(t.String())

	// Demonstration: derive Frontier's withdrawal from its assessed
	// consumption with the default contract.
	cfg, err := core.ConfigFor("Frontier")
	if err != nil {
		return Output{}, err
	}
	a, err := cfg.Assess()
	if err != nil {
		return Output{}, err
	}
	w, err := a.DefaultWithdrawal()
	if err != nil {
		return Output{}, err
	}
	b.WriteString("\nWithdrawal demonstration (Frontier, one assessed year):\n")
	fmt.Fprintf(&b, "  consumption          %v\n", w.Consumption)
	fmt.Fprintf(&b, "  adjusted discharge   %v\n", w.AdjustedDischarge)
	fmt.Fprintf(&b, "  reuse credit         %v\n", w.Reuse)
	fmt.Fprintf(&b, "  gross withdrawal     %v\n", w.Gross)
	fmt.Fprintf(&b, "  scarcity-weighted    %v\n", w.ScarcityWeighted)
	return Output{ID: "table3", Title: "Water withdrawal model", Text: b.String()}, nil
}
