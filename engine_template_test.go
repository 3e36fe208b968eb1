package thirstyflops

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sync"
	"testing"

	"thirstyflops/internal/core"
	"thirstyflops/internal/hardware"
)

// mustResolve resolves req as the Engine does, failing t on error.
func mustResolve(t testing.TB, req AssessRequest) *resolved {
	t.Helper()
	var cfg resolved
	if err := req.resolveConfig(&cfg); err != nil {
		t.Fatal(err)
	}
	return &cfg
}

// bundledSystems lists every bundled system name: the Table 1 systems
// and the outlook ones.
func bundledSystems() []string {
	var out []string
	for _, s := range append(hardware.Systems(), hardware.OutlookSystems()...) {
		out = append(out, s.Name)
	}
	return out
}

// TestEngineBundledResolveMatchesReference checks what a resolved
// request carries against the reference derivations: the memo key is
// Config.Fingerprint and the breakdown Config.EmbodiedBreakdown, for
// bundled systems (from their templates) and for a custom document
// (derived in full).
func TestEngineBundledResolveMatchesReference(t *testing.T) {
	check := func(name string, cfg *resolved) {
		t.Helper()
		bd, err := cfg.EmbodiedBreakdown()
		if err != nil || cfg.bdErr != nil {
			t.Fatalf("%s: breakdown errors %v, %v", name, err, cfg.bdErr)
		}
		if cfg.key != cfg.Fingerprint() || cfg.bd != bd {
			t.Errorf("%s seed %d year %d: resolved key or breakdown differs from the reference", name, cfg.Seed, cfg.Year)
		}
	}
	seeds := []uint64{0, 1, 42, math.MaxUint64, 0x9E3779B97F4A7C15}
	years := []int{0, -7, 1990, 2023}
	for _, name := range bundledSystems() {
		def := mustResolve(t, AssessRequest{System: name})
		ref, err := core.ConfigFor(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(def.Config, ref) {
			t.Errorf("%s: resolved configuration differs from ConfigFor", name)
		}
		for _, seed := range seeds {
			for _, year := range years {
				check(name, mustResolve(t, AssessRequest{System: name, Seed: &seed, Year: &year}))
			}
		}
	}
	raw, err := os.ReadFile("testdata/custom-system.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc ConfigDocument
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	seed := uint64(9)
	check("custom", mustResolve(t, AssessRequest{Custom: &doc, Seed: &seed}))
}

// TestEngineBundledResultsSurviveConfigForEdits edits every map and
// slice of ConfigFor results in place once the Engine's templates are
// built: the configuration a request resolves to still fingerprints as
// before, and a fresh Engine still serves the results it served before.
func TestEngineBundledResultsSurviveConfigForEdits(t *testing.T) {
	ctx := context.Background()
	before := map[string]string{}
	eng := NewEngine()
	for _, name := range bundledSystems() {
		res, err := eng.Assess(ctx, AssessRequest{System: name})
		if err != nil {
			t.Fatal(err)
		}
		before[name] = marshalNormalized(t, res)

		cfg, err := core.ConfigFor(name)
		if err != nil {
			t.Fatal(err)
		}
		key := cfg.Fingerprint()
		for s := range cfg.Region.EWFOverrides {
			cfg.Region.EWFOverrides[s] *= 3
		}
		for s := range cfg.Region.CarbonOverrides {
			cfg.Region.CarbonOverrides[s] *= 3
		}
		for i := range cfg.System.Storage {
			cfg.System.Storage[i].Capacity *= 3
		}
		for i := range cfg.System.Node.CPU.Dies {
			cfg.System.Node.CPU.Dies[i].Area *= 3
		}
		for i := range cfg.System.Node.GPU.Dies {
			cfg.System.Node.GPU.Dies[i].Area *= 3
		}
		if cfg.Fingerprint() == key {
			t.Fatalf("%s: the edits did not reach the fingerprint", name)
		}
		if got := mustResolve(t, AssessRequest{System: name}); got.Fingerprint() != key || got.key != key {
			t.Errorf("%s: an edited ConfigFor result reached the resolved configuration", name)
		}
	}
	fresh := NewEngine()
	for _, name := range bundledSystems() {
		res, err := fresh.Assess(ctx, AssessRequest{System: name})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached || marshalNormalized(t, res) != before[name] {
			t.Errorf("%s: an edited ConfigFor result reached the Engine (cached=%v)", name, res.Cached)
		}
	}
}

// TestEngineBundledTemplatesConcurrent has 8 goroutines assess bundled
// systems on a fresh Engine at once, each system under two seeds, so
// under -race they share the templates, the pooled digests that resume
// their keys and the memo's singleflight. Every result is the one a
// serial Engine serves.
func TestEngineBundledTemplatesConcurrent(t *testing.T) {
	ctx := context.Background()
	names := bundledSystems()
	reqs := make([]AssessRequest, 0, 2*len(names))
	seeds := []uint64{3, 11}
	for _, name := range names {
		for i := range seeds {
			reqs = append(reqs, AssessRequest{System: name, Seed: &seeds[i], Withdrawal: true})
		}
	}
	const goroutines = 8
	eng := NewEngine()
	got := make([][]*AssessResult, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = make([]*AssessResult, len(reqs))
			for i := range reqs {
				j := (g + i) % len(reqs)
				if got[g][j], errs[g] = eng.Assess(ctx, reqs[j]); errs[g] != nil {
					return
				}
			}
		}(g)
	}
	wg.Wait()
	serial := NewEngine()
	for i, req := range reqs {
		want, err := serial.Assess(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		for g := range got {
			if errs[g] != nil {
				t.Fatal(errs[g])
			}
			if marshalNormalized(t, got[g][i]) != marshalNormalized(t, want) {
				t.Errorf("goroutine %d, %s seed %d: result differs from a serial engine's", g, req.System, *req.Seed)
			}
		}
	}
	if st := eng.CacheStats(); st.Misses != uint64(len(reqs)) || st.Hits != uint64((goroutines-1)*len(reqs)) {
		t.Errorf("memo counted %d hits and %d misses, want %d and %d", st.Hits, st.Misses, (goroutines-1)*len(reqs), len(reqs))
	}
}
