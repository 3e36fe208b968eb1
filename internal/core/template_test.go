package core

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"thirstyflops/internal/energy"
	"thirstyflops/internal/hardware"
	"thirstyflops/internal/stats"
	"thirstyflops/internal/units"
)

// bundledNames lists every name ConfigFor accepts: the Table 1 systems
// and the outlook ones.
func bundledNames() []string {
	var out []string
	for _, s := range append(hardware.Systems(), hardware.OutlookSystems()...) {
		out = append(out, s.Name)
	}
	return out
}

// templateSeeds are the edge seeds plus 8 drawn from a fixed stream.
func templateSeeds() []uint64 {
	seeds := []uint64{0, 1, 42, math.MaxUint64}
	rng := stats.NewRNG(0x7e3a)
	for i := 0; i < 8; i++ {
		seeds = append(seeds, rng.Uint64())
	}
	return seeds
}

// TestTemplateKeyMatchesFingerprint is the property the Engine's memo,
// disk log and live keys rely on: for every bundled system, seed and
// year, the key resumed from the template's saved state is
// Config.Fingerprint of the same configuration, and the template's
// configuration and breakdown are ConfigFor's.
func TestTemplateKeyMatchesFingerprint(t *testing.T) {
	names := bundledNames()
	if len(names) != 6 {
		t.Fatalf("%d bundled systems, want 6", len(names))
	}
	for _, name := range names {
		tmpl, err := TemplateFor(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := ConfigFor(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tmpl.Config(), cfg) {
			t.Errorf("%s: template configuration differs from ConfigFor", name)
		}
		bd, err := cfg.EmbodiedBreakdown()
		if gotBD, gotErr := tmpl.Breakdown(); err != nil || gotErr != nil || gotBD != bd {
			t.Errorf("%s: template breakdown %+v (%v), want %+v (%v)", name, gotBD, gotErr, bd, err)
		}
		for _, seed := range templateSeeds() {
			for _, year := range []int{0, -1, math.MinInt, 1990, 2023} {
				cfg.Seed, cfg.Year = seed, year
				if got, want := tmpl.Key(seed, year), cfg.Fingerprint(); got != want {
					t.Errorf("%s seed %d year %d: template key %x, Fingerprint %x", name, seed, year, got, want)
				}
			}
		}
	}
	if _, err := TemplateFor("Summit"); err == nil {
		t.Error("an unknown system has a template")
	}
}

// TestConfigForResultUnaliased edits every map and slice of a ConfigFor
// result in place, after the templates are built: neither a later
// ConfigFor nor any template sees the edit.
func TestConfigForResultUnaliased(t *testing.T) {
	for _, name := range bundledNames() {
		tmpl, err := TemplateFor(name)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ConfigFor(name)
		if err != nil {
			t.Fatal(err)
		}
		key := want.Fingerprint()

		cfg, err := ConfigFor(name)
		if err != nil {
			t.Fatal(err)
		}
		mutateInPlace(&cfg)
		if cfg.Fingerprint() == key {
			t.Fatalf("%s: the edit did not reach the fingerprint", name)
		}
		again, err := ConfigFor(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, want) || again.Fingerprint() != key {
			t.Errorf("%s: editing one ConfigFor result changed a later one", name)
		}
		if !reflect.DeepEqual(tmpl.Config(), want) || tmpl.Key(want.Seed, want.Year) != key {
			t.Errorf("%s: editing a ConfigFor result changed the template", name)
		}
	}
}

// mutateInPlace writes through every map and slice a Config holds.
func mutateInPlace(cfg *Config) {
	for s, v := range cfg.Region.EWFOverrides {
		cfg.Region.EWFOverrides[s] = v + 1
	}
	for s, v := range cfg.Region.CarbonOverrides {
		cfg.Region.CarbonOverrides[s] = v + 1
	}
	if cfg.Region.EWFOverrides != nil {
		cfg.Region.EWFOverrides[energy.Source(0)] += 0.5
	}
	if cfg.Region.CarbonOverrides != nil {
		cfg.Region.CarbonOverrides[energy.Source(0)] += 0.5
	}
	for i := range cfg.System.Storage {
		cfg.System.Storage[i].Capacity *= 2
	}
	if len(cfg.System.Storage) == 0 {
		cfg.System.PUE += 0.01 // nothing to alias; still change the key
	}
	for i := range cfg.System.Node.CPU.Dies {
		cfg.System.Node.CPU.Dies[i].Area += units.SquareMM(1)
	}
	for i := range cfg.System.Node.GPU.Dies {
		cfg.System.Node.GPU.Dies[i].Area += units.SquareMM(1)
	}
}

// TestTemplateConcurrentFirstUse builds the table afresh and has 8
// goroutines ask for templates at once: under -race this is the table's
// first use racing itself. All get the same template per name, and
// every resumed key is the configuration's Fingerprint.
func TestTemplateConcurrentFirstUse(t *testing.T) {
	templates = sync.OnceValue(buildTemplates)
	names := bundledNames()
	const goroutines = 8
	got := make([][]*Template, goroutines)
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range names {
				name := names[(g+i)%len(names)]
				tmpl, err := TemplateFor(name)
				if err != nil {
					errs <- err
					return
				}
				got[g] = append(got[g], tmpl)
				cfg := tmpl.Config()
				cfg.Seed, cfg.Year = uint64(g), 2000+i
				if tmpl.Key(cfg.Seed, cfg.Year) != cfg.Fingerprint() {
					errs <- &keyMismatch{name}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for g := range got {
		for i, tmpl := range got[g] {
			want, _ := TemplateFor(names[(g+i)%len(names)])
			if tmpl != want {
				t.Errorf("goroutine %d got a second template for %s", g, names[(g+i)%len(names)])
			}
		}
	}
}

type keyMismatch struct{ name string }

func (e *keyMismatch) Error() string { return e.name + ": resumed key differs from Fingerprint" }
