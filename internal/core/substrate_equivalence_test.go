package core

import (
	"testing"

	"thirstyflops/internal/substrate"
)

// TestAssessSubstrateEquivalence asserts the tentpole's correctness
// contract: an assessment served through the memoized substrate layer is
// bit-identical to one computed with the layer disabled (every generator
// invoked directly). Any divergence — a wrong cache key, a stale entry, a
// tabulation that changes values — fails on the exact hour.
func TestAssessSubstrateEquivalence(t *testing.T) {
	t.Cleanup(func() { substrate.SetCapacity(substrate.DefaultCapacity) })
	for _, name := range []string{"Frontier", "Marconi"} {
		cfg, err := ConfigFor(name)
		if err != nil {
			t.Fatal(err)
		}

		substrate.SetCapacity(0) // pass-through: the direct reference path
		direct, err := cfg.Assess()
		if err != nil {
			t.Fatal(err)
		}

		substrate.SetCapacity(substrate.DefaultCapacity)
		cold, err := cfg.Assess() // populates the caches
		if err != nil {
			t.Fatal(err)
		}
		warm, err := cfg.Assess() // served from the caches
		if err != nil {
			t.Fatal(err)
		}

		for _, got := range []Annual{cold, warm} {
			if got.Energy != direct.Energy || got.Direct != direct.Direct ||
				got.Indirect != direct.Indirect || got.Carbon != direct.Carbon {
				t.Fatalf("%s: aggregates diverge from the direct path", name)
			}
			if !got.Hourly.Equal(direct.Hourly) {
				t.Fatalf("%s: hourly series not bit-identical to the direct path", name)
			}
		}
	}
}

// TestAssessSharesSubstrateAcrossSeeds checks the sweep scenario the
// layer exists for: two configs differing only in a field outside the
// substrate identity (the lifetime grid year) still share every substrate
// year, while a different seed shares nothing.
func TestAssessSharesSubstrateAcrossSeeds(t *testing.T) {
	t.Cleanup(func() { substrate.SetCapacity(substrate.DefaultCapacity) })
	substrate.SetCapacity(substrate.DefaultCapacity)

	cfg, err := ConfigFor("Polaris")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cfg.Assess(); err != nil {
		t.Fatal(err)
	}
	before := substrate.Stats()

	// Same substrate identities, different system year: all hits.
	again := cfg
	again.Year = cfg.Year + 1
	if _, err := again.Assess(); err != nil {
		t.Fatal(err)
	}
	mid := substrate.Stats()
	if misses := mid.Misses - before.Misses; misses != 0 {
		t.Errorf("substrate regenerated %d years for a shared-identity config", misses)
	}

	// A different seed must regenerate every substrate year.
	reseeded := cfg
	reseeded.Seed = cfg.Seed + 1
	if _, err := reseeded.Assess(); err != nil {
		t.Fatal(err)
	}
	after := substrate.Stats()
	if misses := after.Misses - mid.Misses; misses == 0 {
		t.Error("different seed was served from the substrate cache")
	}
}

// sameArray reports whether two non-empty slices start at the same
// element, i.e. share one backing array.
func sameArray[T any](a, b []T) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// TestSharedSubstrateChannelsAlias pins the sharing contract of
// Config.Assess: two machines assessed at the same (site, region, seed)
// get private energy channels but alias one set of memoized intensity
// channels, and writing to a Clone of one year leaves the other bit
// identical.
func TestSharedSubstrateChannelsAlias(t *testing.T) {
	t.Cleanup(func() { substrate.SetCapacity(substrate.DefaultCapacity) })
	substrate.SetCapacity(substrate.DefaultCapacity)

	cfgA := mustConfig(t, "Frontier")
	cfgB := cfgA
	cfgB.System.Name = "Frontier (half size)"
	cfgB.System.PeakPower /= 2
	a, err := cfgA.Assess()
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfgB.Assess()
	if err != nil {
		t.Fatal(err)
	}

	if sameArray(a.Hourly.Energy, b.Hourly.Energy) {
		t.Error("two machines share one energy channel")
	}
	if !sameArray(a.Hourly.WUE, b.Hourly.WUE) || !sameArray(a.Hourly.EWF, b.Hourly.EWF) ||
		!sameArray(a.Hourly.Carbon, b.Hourly.Carbon) {
		t.Error("intensity channels of a shared (site, region, seed) were copied, not aliased")
	}

	want := b.Hourly.Clone()
	c := a.Hourly.Clone()
	for h := range c.Energy {
		c.Energy[h] = -1
		c.WUE[h] = -1
		c.EWF[h] = -1
		c.Carbon[h] = -1
	}
	if !b.Hourly.Equal(want) {
		t.Fatal("writing to a Clone reached a year that shares its substrate")
	}
	again, err := cfgA.Assess()
	if err != nil {
		t.Fatal(err)
	}
	if !again.Hourly.Equal(a.Hourly) || again.Operational() != a.Operational() {
		t.Fatal("writing to a Clone changed the memoized substrate")
	}
}
