// Package substrate memoizes the deterministic generator years that feed
// every assessment: site wet-bulb weather, grid water/carbon signals, and
// demand utilization — each a pure function of (identity, seed) — plus
// the WUE series, which pre-tabulates the cooling curve over the cached
// weather so the 8760-iteration assessment loop copies values instead of
// re-evaluating the piecewise curve.
//
// The caches exist because the Engine's cold path pays the full substrate
// generation on every new configuration, yet a sweep over 4 systems × N
// scenarios (or seeds × sensitivity variants) re-derives the same
// site/region/demand years over and over: with this layer each year is
// generated once per process and shared.
//
// Returned slices are shared cache state: callers must treat them as
// read-only. core.Config.Assess aliases the WUE, EWF and carbon years in
// the Series it returns instead of copying them, so these slices reach
// API consumers through Annual.Hourly, under the series package's
// read-only channel contract.
package substrate

import (
	"sync"

	"thirstyflops/internal/cache"
	"thirstyflops/internal/energy"
	"thirstyflops/internal/fingerprint"
	"thirstyflops/internal/jobs"
	"thirstyflops/internal/units"
	"thirstyflops/internal/weather"
	"thirstyflops/internal/wue"
)

// DefaultCapacity bounds each substrate cache. A cached year costs
// ~70-140 KB, so the default layer tops out around 25 MB.
const DefaultCapacity = 64

// weather.Site, wue.Curve, and jobs.DemandModel are comparable value
// structs, so they key their caches directly; energy.Region carries maps
// and is keyed by its canonical fingerprint instead.
type (
	wetBulbKey struct {
		site weather.Site
		seed uint64
	}
	wueKey struct {
		curve wue.Curve
		site  weather.Site
		seed  uint64
	}
	gridKey struct {
		region fingerprint.Key
		seed   uint64
	}
	utilKey struct {
		demand jobs.DemandModel
		seed   uint64
	}
)

// GridSignals is the compact projection of a simulated grid year that the
// assessment loop consumes: the EWF and carbon-intensity channels without
// the per-hour source shares, which would grow each cached year from
// ~140 KB to ~840 KB.
type GridSignals struct {
	EWF    []units.LPerKWh
	Carbon []units.GCO2PerKWh
}

type caches struct {
	wetBulb *cache.Cache[wetBulbKey, []units.Celsius]
	wueYear *cache.Cache[wueKey, []units.LPerKWh]
	grid    *cache.Cache[gridKey, GridSignals]
	util    *cache.Cache[utilKey, []float64]
}

var (
	mu    sync.RWMutex
	layer = newCaches(DefaultCapacity)
)

func newCaches(capacity int) *caches {
	return &caches{
		wetBulb: cache.New[wetBulbKey, []units.Celsius](capacity),
		wueYear: cache.New[wueKey, []units.LPerKWh](capacity),
		grid:    cache.New[gridKey, GridSignals](capacity),
		util:    cache.New[utilKey, []float64](capacity),
	}
}

func current() *caches {
	mu.RLock()
	defer mu.RUnlock()
	return layer
}

// SetCapacity rebuilds the caches with a new per-cache bound, dropping
// all memoized years. capacity <= 0 disables the layer: every call
// recomputes (the bit-identity reference path used by equivalence tests).
func SetCapacity(capacity int) {
	mu.Lock()
	defer mu.Unlock()
	layer = newCaches(capacity)
}

// Stats aggregates hit/miss/entry counts across the four caches.
func Stats() cache.Stats {
	c := current()
	var out cache.Stats
	for _, s := range []cache.Stats{
		c.wetBulb.Stats(), c.wueYear.Stats(), c.grid.Stats(), c.util.Stats(),
	} {
		out.Hits += s.Hits
		out.Misses += s.Misses
		out.Entries += s.Entries
	}
	return out
}

// WetBulbYear returns the memoized wet-bulb series of (site, seed). The
// second return reports whether the year was served from cache rather
// than generated — the Engine aggregates these into its planned vs.
// unplanned substrate accounting.
func WetBulbYear(s weather.Site, seed uint64) ([]units.Celsius, bool) {
	v, hit, _ := current().wetBulb.Get(wetBulbKey{s, seed}, func() ([]units.Celsius, error) {
		return s.WetBulbYear(seed), nil
	})
	return v, hit
}

// Trace counts layer lookups (hits served from cache, misses that
// generated a year) for callers that attribute them — the Engine's
// planned/unplanned accounting. core re-exports it as SubstrateTrace.
type Trace struct {
	Hits   uint64
	Misses uint64
}

// Note records one lookup outcome.
func (t *Trace) Note(hit bool) {
	if hit {
		t.Hits++
	} else {
		t.Misses++
	}
}

// Merge folds another trace in.
func (t *Trace) Merge(o Trace) {
	t.Hits += o.Hits
	t.Misses += o.Misses
}

// WUEYear returns the memoized hourly WUE series of (curve, site, seed):
// the curve evaluated exactly (Curve.At) over the cached wet-bulb year,
// so repeated assessments look values up instead of re-evaluating the
// piecewise curve 8760 times. The trace folds in the nested wet-bulb
// lookup a miss performs, so traced counts tally with the layer's
// Stats.
func WUEYear(c wue.Curve, s weather.Site, seed uint64) ([]units.LPerKWh, Trace) {
	var tr Trace
	v, hit, _ := current().wueYear.Get(wueKey{c, s, seed}, func() ([]units.LPerKWh, error) {
		wb, wbHit := WetBulbYear(s, seed)
		tr.Note(wbHit)
		return c.Series(wb), nil
	})
	tr.Note(hit)
	return v, tr
}

// GridYear returns the memoized EWF/carbon signals of (region, seed).
func GridYear(r energy.Region, seed uint64) (GridSignals, bool) {
	h := fingerprint.New()
	r.Fingerprint(h)
	key := gridKey{region: h.Sum(), seed: seed}
	h.Release()
	v, hit, _ := current().grid.Get(key, func() (GridSignals, error) {
		ewf, carbon := r.Signals(seed)
		return GridSignals{EWF: ewf, Carbon: carbon}, nil
	})
	return v, hit
}

// UtilizationYear returns the memoized utilization series of (model, seed).
func UtilizationYear(d jobs.DemandModel, seed uint64) ([]float64, bool) {
	v, hit, _ := current().util.Get(utilKey{d, seed}, func() ([]float64, error) {
		return d.UtilizationYear(seed), nil
	})
	return v, hit
}

// Keys identifies the substrate years one assessment will touch, as
// canonical fingerprints — one per cache plus the combined substrate
// identity. Two configurations with equal Combined keys hit exactly the
// same four cache entries, which is the property the sweep planner
// (internal/plan) builds its execution groups on. The component keys are
// exposed separately so the planner can also cluster groups that share
// only part of their substrate (same grid, different site, ...).
type Keys struct {
	Grid    fingerprint.Key
	WUE     fingerprint.Key
	WetBulb fingerprint.Key
	Util    fingerprint.Key
}

// KeysFor fingerprints the substrate identity of one configuration. Each
// component key is domain-tagged so the four keyspaces stay disjoint.
func KeysFor(c wue.Curve, s weather.Site, r energy.Region, d jobs.DemandModel, seed uint64) Keys {
	var k Keys
	h := fingerprint.New()

	h.String("grid")
	r.Fingerprint(h)
	h.Uint64(seed)
	k.Grid = h.Sum()

	h.Reset()
	h.String("wue")
	c.Fingerprint(h)
	s.Fingerprint(h)
	h.Uint64(seed)
	k.WUE = h.Sum()

	h.Reset()
	h.String("wetbulb")
	s.Fingerprint(h)
	h.Uint64(seed)
	k.WetBulb = h.Sum()

	h.Reset()
	h.String("util")
	d.Fingerprint(h)
	h.Uint64(seed)
	k.Util = h.Sum()

	h.Release()
	return k
}

// Combined folds the component keys into the single substrate identity:
// equal Combined keys touch identical cache entries in every layer cache.
func (k Keys) Combined() fingerprint.Key {
	h := fingerprint.New()
	h.Bytes(k.Grid[:])
	h.Bytes(k.WUE[:])
	h.Bytes(k.WetBulb[:])
	h.Bytes(k.Util[:])
	key := h.Sum()
	h.Release()
	return key
}

// Cluster returns the component keys in the planner's clustering
// priority: grid first (the most expensive year to regenerate, its
// hourly dispatch draws two noise terms and several cosines per hour),
// then the WUE series, the wet-bulb year it derives from, and the
// utilization year.
func (k Keys) Cluster() [4]fingerprint.Key {
	return [4]fingerprint.Key{k.Grid, k.WUE, k.WetBulb, k.Util}
}
