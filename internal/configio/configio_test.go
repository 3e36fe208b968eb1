package configio

import (
	"io"
	"strings"
	"testing"

	"thirstyflops/internal/core"
)

// load is the loader's whole path: the strict Decode, then Build.
func load(r io.Reader) (core.Config, error) {
	doc, err := Decode(r)
	if err != nil {
		return core.Config{}, err
	}
	return Build(doc)
}

const validDoc = `{
  "system": {
    "name": "TestCluster",
    "nodes": 100,
    "cpu": {"catalog": "AMD EPYC 7532"},
    "cpus_per_node": 2,
    "gpu": {"catalog": "NVIDIA A100 PCIe"},
    "gpus_per_node": 4,
    "dram_gb_per_node": 512,
    "node_overhead_w": 400,
    "storage": [{"name": "scratch", "kind": "ssd", "capacity_pb": 1.5}],
    "peak_power_mw": 1.2,
    "pue": 1.3
  },
  "site_name": "Lemont",
  "region": "Illinois",
  "seed": 7
}`

func TestLoadValidDocument(t *testing.T) {
	cfg, err := load(strings.NewReader(validDoc))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.System.Name != "TestCluster" || cfg.System.Nodes != 100 {
		t.Errorf("system wrong: %+v", cfg.System)
	}
	if cfg.System.Node.CPU.Name != "AMD EPYC 7532" {
		t.Error("catalog CPU not resolved")
	}
	if cfg.System.Node.GPUs != 4 {
		t.Error("GPU count wrong")
	}
	if cfg.Site.Name != "Lemont" || cfg.Region.Name != "Illinois" {
		t.Error("site/region wrong")
	}
	if cfg.Seed != 7 {
		t.Error("seed lost")
	}
	// Scarcity falls back to the known Lemont factor.
	if cfg.Scarcity.Direct != 0.62 {
		t.Errorf("scarcity = %v, want Lemont's 0.62", cfg.Scarcity.Direct)
	}
	// The assembled config actually assesses.
	a, err := cfg.Assess()
	if err != nil {
		t.Fatal(err)
	}
	if a.Operational() <= 0 {
		t.Error("assessment degenerate")
	}
}

func TestInlineProcessorAndSite(t *testing.T) {
	doc := `{
	  "system": {
	    "name": "InlineBox",
	    "nodes": 4,
	    "cpu": {"name": "MyChip", "dies": [{"area_mm2": 400, "node_nm": 5, "count": 2}], "tdp_w": 250, "ic_count": 12},
	    "cpus_per_node": 1,
	    "dram_gb_per_node": 128,
	    "peak_power_mw": 0.01,
	    "pue": 1.2
	  },
	  "site": {"name": "MySite", "mean_temp_c": 18, "seasonal_amp_c": 9, "diurnal_amp_c": 5, "mean_rh": 55},
	  "region": "Texas",
	  "wsi": 0.8
	}`
	cfg, err := load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.System.Node.CPU.Name != "MyChip" || len(cfg.System.Node.CPU.Dies) != 1 {
		t.Error("inline processor wrong")
	}
	if cfg.Site.Name != "MySite" {
		t.Error("inline site wrong")
	}
	if cfg.Region.Name != "Texas" {
		t.Error("candidate region not resolved")
	}
	if float64(cfg.Scarcity.Direct) != 0.8 {
		t.Error("explicit WSI ignored")
	}
	// Defaults applied.
	if cfg.Site.WarmestDay != 200 || cfg.Site.NoiseStd != 1.8 {
		t.Error("site defaults not applied")
	}
}

func TestDemandAndEmbodiedOverrides(t *testing.T) {
	doc := `{
	  "system": {
	    "name": "Box", "nodes": 2,
	    "cpu": {"catalog": "Fujitsu A64FX"}, "cpus_per_node": 1,
	    "dram_gb_per_node": 32, "peak_power_mw": 0.001, "pue": 1.1
	  },
	  "site_name": "Kobe", "region": "Japan",
	  "demand": {"mean": 0.5},
	  "yield": 0.7,
	  "fab_ewf_l_per_kwh": 3.5
	}`
	cfg, err := load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Demand.Mean != 0.5 {
		t.Error("demand override ignored")
	}
	if cfg.Embodied.Yield != 0.7 || float64(cfg.Embodied.FabEWF) != 3.5 {
		t.Error("embodied overrides ignored")
	}
}

func TestLoadRejects(t *testing.T) {
	cases := map[string]string{
		"bad json":        `{`,
		"unknown field":   `{"bogus": 1}`,
		"no site":         `{"system":{"name":"x","nodes":1,"cpu":{"catalog":"Fujitsu A64FX"},"cpus_per_node":1,"dram_gb_per_node":1,"peak_power_mw":1,"pue":1.1},"region":"Japan"}`,
		"unknown region":  `{"system":{"name":"x","nodes":1,"cpu":{"catalog":"Fujitsu A64FX"},"cpus_per_node":1,"dram_gb_per_node":1,"peak_power_mw":1,"pue":1.1},"site_name":"Kobe","region":"Atlantis"}`,
		"unknown site":    `{"system":{"name":"x","nodes":1,"cpu":{"catalog":"Fujitsu A64FX"},"cpus_per_node":1,"dram_gb_per_node":1,"peak_power_mw":1,"pue":1.1},"site_name":"Atlantis","region":"Japan"}`,
		"unknown catalog": `{"system":{"name":"x","nodes":1,"cpu":{"catalog":"Intel 4004"},"cpus_per_node":1,"dram_gb_per_node":1,"peak_power_mw":1,"pue":1.1},"site_name":"Kobe","region":"Japan"}`,
		"bad storage":     `{"system":{"name":"x","nodes":1,"cpu":{"catalog":"Fujitsu A64FX"},"cpus_per_node":1,"dram_gb_per_node":1,"storage":[{"name":"s","kind":"tape","capacity_pb":1}],"peak_power_mw":1,"pue":1.1},"site_name":"Kobe","region":"Japan"}`,
		"bad pue":         `{"system":{"name":"x","nodes":1,"cpu":{"catalog":"Fujitsu A64FX"},"cpus_per_node":1,"dram_gb_per_node":1,"peak_power_mw":1,"pue":0.8},"site_name":"Kobe","region":"Japan"}`,
		"no name":         `{"system":{"nodes":1,"cpu":{"catalog":"Fujitsu A64FX"},"cpus_per_node":1,"dram_gb_per_node":1,"peak_power_mw":1,"pue":1.1},"site_name":"Kobe","region":"Japan"}`,
	}
	for name, doc := range cases {
		if _, err := load(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDefaultSeed(t *testing.T) {
	doc := strings.Replace(validDoc, `"seed": 7`, `"seed": 0`, 1)
	cfg, err := load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 42 {
		t.Errorf("default seed = %d, want 42", cfg.Seed)
	}
}
