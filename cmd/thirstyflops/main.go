// Command thirstyflops estimates the water footprint of an HPC system:
// embodied breakdown, a simulated year of operation (direct/indirect
// water, carbon), scarcity-adjusted intensities, scenario sweeps, and
// withdrawal accounting. It is a client of the library's Engine: -json
// prints the same AssessResult as the daemon's POST /assess.
//
// Usage:
//
//	thirstyflops -list
//	thirstyflops -system Frontier
//	thirstyflops -system Marconi -years 6 -seed 7 -scenarios -withdrawal
//	thirstyflops -system Polaris -json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"thirstyflops"
	"thirstyflops/internal/configio"
	"thirstyflops/internal/embodied"
	"thirstyflops/internal/report"
	"thirstyflops/internal/units"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, errorLine(err))
		os.Exit(1)
	}
}

// errorLine prefixes err with the command name once: Engine errors
// already carry it.
func errorLine(err error) string {
	msg := err.Error()
	if !strings.HasPrefix(msg, "thirstyflops: ") {
		msg = "thirstyflops: " + msg
	}
	return msg
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("thirstyflops", flag.ContinueOnError)
	var (
		system     = fs.String("system", "", "system to assess (see -list)")
		configPath = fs.String("config", "", "JSON document describing a custom system")
		list       = fs.Bool("list", false, "list bundled systems and exit")
		years      = fs.Float64("years", 6, "system lifetime in years")
		seed       = fs.Uint64("seed", 42, "simulation seed (a -config document keeps its own unless given)")
		scenarios  = fs.Bool("scenarios", false, "include the energy-sourcing scenario sweep")
		withdrawal = fs.Bool("withdrawal", false, "include withdrawal accounting")
		asJSON     = fs.Bool("json", false, "emit the AssessResult as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		cs, err := thirstyflops.AllSystemConfigs()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "bundled systems:")
		for _, c := range cs {
			fmt.Fprintf(out, "  %-9s %s, %s (PUE %.2f, %d nodes)\n",
				c.System.Name, c.System.SiteName, c.Region.Name,
				float64(c.System.PUE), c.System.Nodes)
		}
		return nil
	}
	// The Engine reads a zero lifetime as its default; here it is an error.
	if *years <= 0 {
		return fmt.Errorf("-years must be positive")
	}

	req := thirstyflops.AssessRequest{Years: *years, Scenarios: *scenarios, Withdrawal: *withdrawal}
	switch {
	case *system != "" && *configPath != "":
		return fmt.Errorf("-system and -config are mutually exclusive")
	case *configPath != "":
		f, err := os.Open(*configPath)
		if err != nil {
			return err
		}
		defer f.Close()
		doc, err := configio.Decode(f)
		if err != nil {
			return err
		}
		req.Custom = &doc
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "seed" {
				req.Seed = seed
			}
		})
	case *system != "":
		req.System = *system
		req.Seed = seed
	default:
		return fmt.Errorf("no -system or -config given (try -list)")
	}

	res, err := thirstyflops.NewEngine().Assess(context.Background(), req)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}

	// An AssessResult carries neither the site WSI nor the per-component
	// embodied litres; the text view reads them from the configuration.
	var cfg thirstyflops.Config
	if req.Custom != nil {
		cfg, err = thirstyflops.BuildConfig(*req.Custom)
	} else {
		cfg, err = thirstyflops.SystemConfig(req.System)
	}
	if err != nil {
		return err
	}
	bd, err := cfg.EmbodiedBreakdown()
	if err != nil {
		return err
	}

	direct, indirect := units.Liters(res.DirectL), units.Liters(res.IndirectL)
	fmt.Fprintf(out, "ThirstyFLOPS assessment: %s (%s)\n", res.System, res.Site)
	fmt.Fprintln(out, strings.Repeat("=", 50))
	fmt.Fprintf(out, "annual IT energy        %v\n", units.KWh(res.EnergyKWh))
	fmt.Fprintf(out, "annual direct water     %v (%s)\n", direct, report.Pct(res.DirectShare))
	fmt.Fprintf(out, "annual indirect water   %v (%s)\n", indirect, report.Pct(1-res.DirectShare))
	fmt.Fprintf(out, "annual carbon           %v\n", units.GramsCO2(res.CarbonKg*1e3))
	fmt.Fprintf(out, "water intensity         %v\n", units.LPerKWh(res.WaterIntensity))
	fmt.Fprintf(out, "WSI-adjusted intensity  %v (site WSI %.2f)\n",
		units.LPerKWh(res.AdjustedIntensity), float64(cfg.Scarcity.Direct))
	fmt.Fprintln(out)
	fmt.Fprintf(out, "embodied footprint      %v\n", units.Liters(res.EmbodiedL))
	for _, c := range embodied.Components() {
		if bd.Of(c) == 0 {
			continue
		}
		fmt.Fprintf(out, "  %-5s %8s  %v\n", c, report.Pct(bd.Share(c)), bd.Of(c))
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "lifetime (%.0f years)     total %v = embodied %v + direct %v + indirect %v\n",
		res.Years, units.Liters(res.LifetimeTotalL), units.Liters(res.EmbodiedL),
		direct*units.Liters(res.Years), indirect*units.Liters(res.Years))

	if *scenarios {
		fmt.Fprintln(out, "\nenergy-sourcing scenarios (savings vs current mix):")
		for _, r := range res.Scenarios {
			fmt.Fprintf(out, "  %-38s water %6s   carbon %6s\n",
				r.Scenario, report.Signed(r.WaterSavingPct), report.Signed(r.CarbonSavingPct))
		}
	}

	if w := res.Withdrawal; w != nil {
		fmt.Fprintln(out, "\nwithdrawal accounting (default contract):")
		fmt.Fprintf(out, "  consumption        %v\n", w.Consumption)
		fmt.Fprintf(out, "  adjusted discharge %v\n", w.AdjustedDischarge)
		fmt.Fprintf(out, "  reuse credit       %v\n", w.Reuse)
		fmt.Fprintf(out, "  gross withdrawal   %v\n", w.Gross)
		fmt.Fprintf(out, "  scarcity-weighted  %v\n", w.ScarcityWeighted)
	}
	return nil
}
