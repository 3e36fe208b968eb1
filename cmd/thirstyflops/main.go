// Command thirstyflops estimates the water footprint of an HPC system:
// embodied breakdown, a simulated year of operation (direct/indirect
// water, carbon), scarcity-adjusted intensities, scenario sweeps, and
// withdrawal accounting.
//
// Usage:
//
//	thirstyflops -list
//	thirstyflops -system Frontier
//	thirstyflops -system Marconi -years 6 -seed 7 -scenarios -withdrawal
//	thirstyflops -system Polaris -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"thirstyflops/internal/configio"
	"thirstyflops/internal/core"
	"thirstyflops/internal/embodied"
	"thirstyflops/internal/report"
	"thirstyflops/internal/units"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "thirstyflops:", err)
		os.Exit(1)
	}
}

// jsonReport is the machine-readable output shape.
type jsonReport struct {
	System            string             `json:"system"`
	Years             float64            `json:"years"`
	EnergyKWh         float64            `json:"energy_kwh_per_year"`
	DirectL           float64            `json:"direct_l_per_year"`
	IndirectL         float64            `json:"indirect_l_per_year"`
	EmbodiedL         float64            `json:"embodied_l"`
	LifetimeTotalL    float64            `json:"lifetime_total_l"`
	CarbonKg          float64            `json:"carbon_kg_per_year"`
	WaterIntensity    float64            `json:"water_intensity_l_per_kwh"`
	AdjustedIntensity float64            `json:"wsi_adjusted_intensity_l_per_kwh"`
	EmbodiedShares    map[string]float64 `json:"embodied_shares"`
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("thirstyflops", flag.ContinueOnError)
	var (
		system     = fs.String("system", "", "system to assess (see -list)")
		configPath = fs.String("config", "", "JSON document describing a custom system")
		list       = fs.Bool("list", false, "list bundled systems and exit")
		years      = fs.Float64("years", 6, "system lifetime in years")
		seed       = fs.Uint64("seed", 42, "simulation seed")
		scenarios  = fs.Bool("scenarios", false, "include the energy-sourcing scenario sweep")
		withdrawal = fs.Bool("withdrawal", false, "include withdrawal accounting")
		asJSON     = fs.Bool("json", false, "emit machine-readable JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Fprintln(out, "bundled systems:")
		for _, c := range mustConfigs() {
			fmt.Fprintf(out, "  %-9s %s, %s (PUE %.2f, %d nodes)\n",
				c.System.Name, c.System.SiteName, c.Region.Name,
				float64(c.System.PUE), c.System.Nodes)
		}
		return nil
	}
	if *years <= 0 {
		return fmt.Errorf("-years must be positive")
	}

	var cfg core.Config
	switch {
	case *system != "" && *configPath != "":
		return fmt.Errorf("-system and -config are mutually exclusive")
	case *configPath != "":
		f, err := os.Open(*configPath)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg, err = configio.Load(f)
		if err != nil {
			return err
		}
	case *system != "":
		var err error
		cfg, err = core.ConfigFor(*system)
		if err != nil {
			return err
		}
		cfg.Seed = *seed
	default:
		return fmt.Errorf("no -system or -config given (try -list)")
	}

	a, err := cfg.Assess()
	if err != nil {
		return err
	}
	bd, err := cfg.EmbodiedBreakdown()
	if err != nil {
		return err
	}
	f, err := cfg.Lifetime(*years)
	if err != nil {
		return err
	}
	_, _, wi := a.WaterIntensity()
	adj := a.AdjustedWaterIntensity(cfg.Scarcity)

	if *asJSON {
		rep := jsonReport{
			System:            a.System,
			Years:             *years,
			EnergyKWh:         float64(a.Energy),
			DirectL:           float64(a.Direct),
			IndirectL:         float64(a.Indirect),
			EmbodiedL:         float64(bd.Total()),
			LifetimeTotalL:    float64(f.Total()),
			CarbonKg:          a.Carbon.Kilograms(),
			WaterIntensity:    float64(wi),
			AdjustedIntensity: float64(adj),
			EmbodiedShares:    bd.Shares(),
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}

	fmt.Fprintf(out, "ThirstyFLOPS assessment: %s (%s)\n", a.System, cfg.Site.Name)
	fmt.Fprintln(out, strings.Repeat("=", 50))
	fmt.Fprintf(out, "annual IT energy        %v\n", a.Energy)
	fmt.Fprintf(out, "annual direct water     %v (%s)\n", a.Direct, report.Pct(a.DirectShare()))
	fmt.Fprintf(out, "annual indirect water   %v (%s)\n", a.Indirect, report.Pct(1-a.DirectShare()))
	fmt.Fprintf(out, "annual carbon           %v\n", a.Carbon)
	fmt.Fprintf(out, "water intensity         %v\n", wi)
	fmt.Fprintf(out, "WSI-adjusted intensity  %v (site WSI %.2f)\n", adj, float64(cfg.Scarcity.Direct))
	fmt.Fprintln(out)
	fmt.Fprintf(out, "embodied footprint      %v\n", bd.Total())
	for _, c := range embodied.Components() {
		if bd.Of(c) == 0 {
			continue
		}
		fmt.Fprintf(out, "  %-5s %8s  %v\n", c, report.Pct(bd.Share(c)), bd.Of(c))
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "lifetime (%.0f years)     total %v = embodied %v + direct %v + indirect %v\n",
		*years, f.Total(), f.Embodied, f.Direct, f.Indirect)

	if *scenarios {
		rs, err := cfg.ScenarioSweep()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "\nenergy-sourcing scenarios (savings vs current mix):")
		for _, r := range rs {
			fmt.Fprintf(out, "  %-38s water %6s   carbon %6s\n",
				r.Scenario, report.Signed(r.WaterSavingPct), report.Signed(r.CarbonSavingPct))
		}
	}

	if *withdrawal {
		discharge := units.Liters(float64(a.Direct) / 3)
		w, err := core.ComputeWithdrawal(a.Operational(), core.DefaultWithdrawalParams(discharge))
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "\nwithdrawal accounting (default contract):")
		fmt.Fprintf(out, "  consumption        %v\n", w.Consumption)
		fmt.Fprintf(out, "  adjusted discharge %v\n", w.AdjustedDischarge)
		fmt.Fprintf(out, "  reuse credit       %v\n", w.Reuse)
		fmt.Fprintf(out, "  gross withdrawal   %v\n", w.Gross)
		fmt.Fprintf(out, "  scarcity-weighted  %v\n", w.ScarcityWeighted)
	}
	return nil
}

func mustConfigs() []core.Config {
	cs, err := core.AllConfigs()
	if err != nil {
		panic(err)
	}
	return cs
}
