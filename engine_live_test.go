package thirstyflops

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"thirstyflops/internal/core"
	"thirstyflops/internal/fingerprint"
	"thirstyflops/internal/series"
	"thirstyflops/internal/units"
	"thirstyflops/internal/wsi"
)

func newLiveEngine(t *testing.T, system string, window int) (*Engine, *Stream) {
	t.Helper()
	stream, err := NewStream(system, 0, window)
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(WithLiveStreams(NewStreamRegistry(stream))), stream
}

func TestEngineLiveAssessEmptyWindowMatchesSimulation(t *testing.T) {
	eng, _ := newLiveEngine(t, "", 168)
	ctx := context.Background()
	sim, err := eng.Assess(ctx, AssessRequest{System: "Frontier"})
	if err != nil {
		t.Fatal(err)
	}
	live, err := eng.Assess(ctx, AssessRequest{System: "Frontier", Source: SourceLive})
	if err != nil {
		t.Fatal(err)
	}
	if live.Source != SourceLive || sim.Source != SourceSimulated {
		t.Errorf("sources wrong: sim %q live %q", sim.Source, live.Source)
	}
	if live.Live == nil || live.Live.Epoch != 0 || live.Live.HoursObserved != 0 {
		t.Errorf("empty-window provenance wrong: %+v", live.Live)
	}
	// With nothing observed, the live splice is the simulation.
	if live.OperationalL != sim.OperationalL || live.EnergyKWh != sim.EnergyKWh {
		t.Error("empty live window changed the assessment")
	}
}

func TestEngineLiveAssessReflectsIngestedSamples(t *testing.T) {
	eng, stream := newLiveEngine(t, "", 168)
	ctx := context.Background()
	req := AssessRequest{System: "Frontier", Source: SourceLive, IncludeSeries: true}

	before, err := eng.Assess(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	// Observe hours 0..23 at a fixed 5 MW — far from the simulated
	// Frontier demand, so the splice is visible in totals and series.
	samples := make([]Sample, 24)
	for h := range samples {
		samples[h] = Sample{Hour: h, Power: 5e6}
	}
	accepted, err := eng.Ingest(samples...)
	if err != nil || accepted != 24 {
		t.Fatalf("ingest: accepted %d, err %v", accepted, err)
	}

	after, err := eng.Assess(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if after.Live == nil || after.Live.Epoch != 24 || after.Live.HoursObserved != 24 ||
		after.Live.WindowLo != 0 || after.Live.WindowHi != 24 {
		t.Fatalf("provenance wrong: %+v", after.Live)
	}
	if after.Cached {
		t.Error("post-ingest assessment served from a stale cache entry")
	}
	for h := 0; h < 24; h++ {
		if got := float64(after.Series.Energy[h]); math.Abs(got-5000) > 1e-9 {
			t.Fatalf("hour %d energy = %v kWh, want 5000 (observed 5 MW)", h, got)
		}
	}
	// Hours beyond the window keep the simulated demand.
	if after.Series.Energy[24] != before.Series.Energy[24] {
		t.Error("unobserved hour diverged from simulation")
	}
	if after.OperationalL == before.OperationalL {
		t.Error("observed demand did not move the water footprint")
	}
	// The intensity channels are modeled either way.
	if after.Series.WUE[0] != before.Series.WUE[0] || after.Series.EWF[0] != before.Series.EWF[0] {
		t.Error("live splice touched the intensity channels")
	}
	// The served timeline is the reference splice in arrays of its own,
	// the result carries that timeline's intensities, and the memoized
	// live year carries them too while its slot keeps no hourly channel.
	cfg := mustResolve(t, req)
	base, _, err := eng.annualFor(cfg, subUnplanned)
	if err != nil {
		t.Fatal(err)
	}
	checkLiveSeries(t, after, stream.Window().SpliceInto(base.Hourly), base.Hourly, cfg.Scarcity)
	a, _, cached, err := eng.liveAnnualFor(cfg, subUnplanned, false)
	if err != nil || !cached {
		t.Fatalf("live memo lookup cached=%v err=%v", cached, err)
	}
	checkCarriedBy(t, a, *after.Series, cfg.Scarcity)
	if slot, epoch, ok := residentLive(eng, cfg.Config, stream); !ok || epoch != 24 || slot.Hourly.Len() != 0 || slot.Hourly.PUE != 0 {
		t.Errorf("live slot resident=%v at epoch %d holds %d hours, want totals only at epoch 24", ok, epoch, slot.Hourly.Len())
	}
}

// checkCarriedBy fails unless a carries its annual water intensities and
// they, and the scarcity-adjusted intensity under p, equal the values
// derived from hourly.MeanWaterIntensity, compared bit for bit.
func checkCarriedBy(t *testing.T, a core.Annual, hourly series.Series, p wsi.Profile) {
	t.Helper()
	if !reflect.ValueOf(a).FieldByName("hasMeans").Bool() {
		t.Errorf("%s: assessed year carries no water intensities", a.System)
	}
	d, i, w := hourly.MeanWaterIntensity()
	gd, gi, gw := a.WaterIntensity()
	for _, pair := range [][2]LPerKWh{
		{gd, d}, {gi, i}, {gw, w}, {a.AdjustedWaterIntensity(p), p.AdjustedIntensity(d, i)},
	} {
		if math.Float64bits(float64(pair[0])) != math.Float64bits(float64(pair[1])) {
			t.Errorf("%s: carried intensity %v, hourly recompute %v", a.System, pair[0], pair[1])
		}
	}
}

// checkLiveSeries fails unless the live result res attaches a timeline
// bit-identical to want that shares no array with base, and the result's
// served intensities equal that timeline's MeanWaterIntensity bit for
// bit.
func checkLiveSeries(t *testing.T, res *AssessResult, want, base series.Series, p wsi.Profile) {
	t.Helper()
	if res.Series == nil {
		t.Fatal("live result attaches no timeline")
	}
	got := *res.Series
	if got.Len() != want.Len() || channelDigest(got) != channelDigest(want) {
		t.Error("served live timeline differs from the reference splice")
	}
	if &got.Energy[0] == &base.Energy[0] || &got.WUE[0] == &base.WUE[0] ||
		&got.EWF[0] == &base.EWF[0] || &got.Carbon[0] == &base.Carbon[0] {
		t.Error("served live timeline shares an array with the simulated year")
	}
	d, i, w := got.MeanWaterIntensity()
	if math.Float64bits(res.WaterIntensity) != math.Float64bits(float64(w)) ||
		math.Float64bits(res.AdjustedIntensity) != math.Float64bits(float64(p.AdjustedIntensity(d, i))) {
		t.Errorf("served intensities %v/%v, timeline recompute %v/%v",
			res.WaterIntensity, res.AdjustedIntensity, w, p.AdjustedIntensity(d, i))
	}
}

// TestEngineLiveEpochKeysCache is the staleness guarantee: assessments
// are cached per stream epoch, a repeat at the same epoch hits, and any
// accepted sample advances the epoch so the pre-ingest entry can never
// be served again.
func TestEngineLiveEpochKeysCache(t *testing.T) {
	eng, _ := newLiveEngine(t, "", 168)
	ctx := context.Background()
	req := AssessRequest{System: "Frontier", Source: SourceLive}

	first, err := eng.Assess(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first live assessment claimed a cache hit")
	}
	repeat, err := eng.Assess(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !repeat.Cached {
		t.Error("same-epoch repeat missed the cache")
	}

	for round := 1; round <= 3; round++ {
		if _, err := eng.Ingest(Sample{Hour: round, Power: 1e6}); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Assess(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached {
			t.Fatalf("round %d: cache served a pre-ingest result after the epoch advanced", round)
		}
		if res.Live.Epoch != uint64(round) {
			t.Fatalf("round %d: epoch = %d", round, res.Live.Epoch)
		}
		again, err := eng.Assess(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !again.Cached || again.Live.Epoch != uint64(round) {
			t.Fatalf("round %d: same-epoch repeat missed (cached=%v epoch=%d)", round, again.Cached, again.Live.Epoch)
		}
	}

	// The live keyspace must not pollute the simulated one.
	sim, err := eng.Assess(ctx, AssessRequest{System: "Frontier"})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Live != nil || sim.Source != SourceSimulated {
		t.Errorf("simulated result carries live provenance: %+v", sim.Live)
	}
}

// TestEngineLiveSeriesReusesResolvedBase asks for live timelines. A tick
// that prices its totals resolves the simulated year once, for the fold
// and the timeline both; a repeat served from the live slot looks the
// simulated year up once more, and reports the result uncached when that
// year was evicted and had to be simulated again.
func TestEngineLiveSeriesReusesResolvedBase(t *testing.T) {
	eng, stream := newLiveEngine(t, "", 24)
	ctx := context.Background()
	req := AssessRequest{System: "Frontier", Source: SourceLive, IncludeSeries: true}
	cfg := mustResolve(t, req)
	if _, err := eng.Assess(ctx, req); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Ingest(Sample{Hour: 3, Power: 2e6}); err != nil {
		t.Fatal(err)
	}
	before := eng.CacheStats()
	tick, err := eng.Assess(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	after := eng.CacheStats()
	if tick.Cached || after.Hits-before.Hits != 1 || after.Misses-before.Misses != 1 {
		t.Errorf("tick cached=%v with %d hits and %d misses, want a live-slot miss and one simulated-year hit",
			tick.Cached, after.Hits-before.Hits, after.Misses-before.Misses)
	}
	repeat, err := eng.Assess(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if final := eng.CacheStats(); !repeat.Cached || final.Hits-after.Hits != 2 || final.Misses != after.Misses {
		t.Errorf("repeat cached=%v with %d hits and %d misses, want the live slot and the simulated year hit",
			repeat.Cached, final.Hits-after.Hits, final.Misses-after.Misses)
	}
	baseKey := cfg.Fingerprint()
	if _, ok := eng.memo.Delete(baseKey); !ok {
		t.Fatal("simulated year not resident")
	}
	evicted, err := eng.Assess(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if evicted.Cached || evicted.Live.Epoch != tick.Live.Epoch {
		t.Errorf("timeline over a re-simulated year reported cached=%v at epoch %d", evicted.Cached, evicted.Live.Epoch)
	}
	base, err := cfg.Assess()
	if err != nil {
		t.Fatal(err)
	}
	checkLiveSeries(t, evicted, stream.Window().SpliceInto(base.Hourly), base.Hourly, cfg.Scarcity)
}

func TestEngineLiveUncachedEngine(t *testing.T) {
	stream, err := NewStream("", 0, 24)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(WithCache(0), WithLiveStreams(NewStreamRegistry(stream)))
	if _, err := eng.Ingest(Sample{Hour: 0, Power: 2e6}); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Assess(context.Background(), AssessRequest{System: "Frontier", Source: SourceLive, IncludeSeries: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached {
		t.Error("cache-disabled engine reported a hit")
	}
	if got := float64(res.Series.Energy[0]); math.Abs(got-2000) > 1e-9 {
		t.Errorf("hour 0 energy = %v kWh, want 2000", got)
	}
}

func TestEngineLiveErrors(t *testing.T) {
	ctx := context.Background()

	// No stream attached.
	plain := NewEngine()
	if _, err := plain.Assess(ctx, AssessRequest{System: "Frontier", Source: SourceLive}); err == nil {
		t.Error("live assess without a stream succeeded")
	}
	if _, err := plain.Ingest(Sample{Hour: 0, Power: 1}); err == nil {
		t.Error("ingest without a stream succeeded")
	}

	// Unknown source label.
	eng, _ := newLiveEngine(t, "", 24)
	if _, err := eng.Assess(ctx, AssessRequest{System: "Frontier", Source: "psychic"}); err == nil ||
		!strings.Contains(err.Error(), "psychic") {
		t.Errorf("unknown source not rejected: %v", err)
	}

	// A system-pinned stream leaves foreign assessments unroutable: the
	// registry answers with the distinct no-stream error.
	pinned, _ := newLiveEngine(t, "Frontier", 24)
	if _, err := pinned.Assess(ctx, AssessRequest{System: "Marconi", Source: SourceLive}); !errors.Is(err, ErrNoLiveStream) {
		t.Errorf("system mismatch not rejected with ErrNoLiveStream: %v", err)
	}
	if _, err := pinned.Assess(ctx, AssessRequest{System: "Frontier", Source: SourceLive}); err != nil {
		t.Errorf("matching system rejected: %v", err)
	}

	// Year-pinned stream refuses other years.
	stream, err := NewStream("", 2023, 24)
	if err != nil {
		t.Fatal(err)
	}
	yearEng := NewEngine(WithLiveStreams(NewStreamRegistry(stream)))
	year := 2024
	if _, err := yearEng.Assess(ctx, AssessRequest{System: "Frontier", Year: &year, Source: SourceLive}); err == nil {
		t.Error("year mismatch not rejected")
	}

	// Partial batch: rejects reported, the rest lands.
	accepted, err := eng.Ingest(
		Sample{Hour: 0, Power: 1e6},
		Sample{Hour: 1, Power: -1},
		Sample{Hour: 2, Power: 1e6},
	)
	if accepted != 2 || err == nil {
		t.Errorf("partial batch: accepted %d err %v, want 2 with error", accepted, err)
	}
}

// TestEngineLiveConcurrentIngestAndAssess races feeds against live
// assessments; under -race it proves the snapshot/splice path never
// observes a torn window.
func TestEngineLiveConcurrentIngestAndAssess(t *testing.T) {
	eng, _ := newLiveEngine(t, "", 64)
	ctx := context.Background()
	req := AssessRequest{System: "Frontier", Source: SourceLive}
	if _, err := eng.Assess(ctx, req); err != nil {
		t.Fatal(err) // warm the simulated base outside the race
	}
	var wg sync.WaitGroup
	for f := 0; f < 4; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := eng.Ingest(Sample{Hour: i % 64, Power: 1e6}); err != nil {
					t.Error(err)
					return
				}
			}
		}(f)
	}
	for a := 0; a < 4; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				res, err := eng.Assess(ctx, req)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Live == nil || res.Source != SourceLive {
					t.Error("live provenance missing under concurrency")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// channelDigest hashes a series' PUE and every channel's float bits.
func channelDigest(s series.Series) fingerprint.Key {
	h := fingerprint.New()
	defer h.Release()
	h.Float(float64(s.PUE))
	for i := range s.Energy {
		h.Float(float64(s.Energy[i]))
		h.Float(float64(s.WUE[i]))
		h.Float(float64(s.EWF[i]))
		h.Float(float64(s.Carbon[i]))
	}
	return h.Sum()
}

// sharesIntensities reports whether y's WUE, EWF and carbon channels
// are base's arrays rather than copies.
func sharesIntensities(y, base series.Series) bool {
	return &y.WUE[0] == &base.WUE[0] && &y.EWF[0] == &base.EWF[0] && &y.Carbon[0] == &base.Carbon[0]
}

// TestSharedBaseSpliceRace splices live years from one simulated base on
// several goroutines while others read the base's channels and an Engine
// serves live assessments over the same memoized substrate years. Under
// -race it proves the shared intensity channels are only ever read.
// Afterwards the base is bit-identical, every spliced year owns its
// energy channel and shares the base's intensities, the engine's
// rebuilt live timeline does too, and the served timeline is the
// reference splice in arrays of its own.
func TestSharedBaseSpliceRace(t *testing.T) {
	cfg := mustResolve(t, AssessRequest{System: "Frontier"})
	base, err := cfg.Assess()
	if err != nil {
		t.Fatal(err)
	}
	before := channelDigest(base.Hourly)
	totals := base.Hourly.Totals()

	const window, splicers, readers, servers, iters = 336, 4, 2, 2, 16
	eng, served := newLiveEngine(t, "", window)
	ctx := context.Background()
	req := AssessRequest{System: "Frontier", Source: SourceLive}
	if _, err := eng.Assess(ctx, req); err != nil {
		t.Fatal(err) // warm the simulated base outside the race
	}

	spliced := make([][]series.Series, splicers)
	var wg sync.WaitGroup
	for g := 0; g < splicers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			stream, err := NewStream("", 0, window)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < iters; i++ {
				if err := stream.Ingest(Sample{Hour: g*iters + i, Power: units.Watts(1e6 * float64(g+1))}); err != nil {
					t.Error(err)
					return
				}
				spliced[g] = append(spliced[g], stream.Window().SpliceInto(base.Hourly))
			}
		}(g)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if base.Hourly.Totals() != totals {
					t.Error("shared base changed under concurrent splicing")
					return
				}
			}
		}()
	}
	for s := 0; s < servers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if _, err := eng.Ingest(Sample{Hour: s*iters + i, Power: 2e6}); err != nil {
					t.Error(err)
					return
				}
				res, err := eng.Assess(ctx, req)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Live == nil || res.Source != SourceLive {
					t.Error("live provenance missing under concurrency")
					return
				}
			}
		}(s)
	}
	wg.Wait()

	if channelDigest(base.Hourly) != before {
		t.Fatal("shared base's channels changed")
	}
	owners := map[*units.KWh]bool{&base.Hourly.Energy[0]: true}
	for _, ys := range spliced {
		for _, y := range ys {
			if owners[&y.Energy[0]] {
				t.Fatal("two years share one energy array")
			}
			owners[&y.Energy[0]] = true
			if !sharesIntensities(y, base.Hourly) {
				t.Fatal("spliced year copied the base's intensity channels")
			}
		}
	}
	w := served.Window()
	live, lw, _, err := eng.liveAnnualFor(cfg, subUnplanned, true)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := live.Hourly
	if lw.Epoch != w.Epoch || owners[&rebuilt.Energy[0]] || !sharesIntensities(rebuilt, base.Hourly) {
		t.Fatal("the engine's live timeline does not share the memoized substrate channels")
	}
	res, err := eng.Assess(ctx, AssessRequest{System: "Frontier", Source: SourceLive, IncludeSeries: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Live.Epoch != w.Epoch {
		t.Fatalf("quiet stream at epoch %d, assessment at %d", w.Epoch, res.Live.Epoch)
	}
	checkLiveSeries(t, res, w.SpliceInto(base.Hourly), base.Hourly, cfg.Scarcity)
	if owners[&res.Series.Energy[0]] {
		t.Error("served live timeline shares a spliced year's energy array")
	}
	if slot, epoch, ok := residentLive(eng, cfg.Config, served); !ok || epoch != w.Epoch || slot.Hourly.Len() != 0 {
		t.Errorf("live slot resident=%v at epoch %d holds %d hours, want totals only at epoch %d", ok, epoch, slot.Hourly.Len(), w.Epoch)
	}
}

// TestEngineLiveReplacedStreamNotServedStale replaces a stream with a
// same-label one, which restarts at epoch 0: its live assessment must be
// spliced from its own samples, never served from the predecessor's
// memoized year.
func TestEngineLiveReplacedStreamNotServedStale(t *testing.T) {
	old, err := NewStream("Frontier", 0, 24)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewStreamRegistry(old)
	eng := NewEngine(WithLiveStreams(reg))
	ctx := context.Background()
	req := AssessRequest{System: "Frontier", Source: SourceLive}

	if _, err := eng.Ingest(Sample{System: "Frontier", Hour: 0, Power: 1e6}); err != nil {
		t.Fatal(err)
	}
	first, err := eng.Assess(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	replacement, err := NewStream("Frontier", 0, 24)
	if err != nil {
		t.Fatal(err)
	}
	reg.Register(replacement)
	if _, err := eng.Ingest(Sample{System: "Frontier", Hour: 0, Power: 9e6}); err != nil {
		t.Fatal(err)
	}
	second, err := eng.Assess(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Live.Epoch != first.Live.Epoch {
		t.Fatalf("epochs %d and %d: the repro needs the replacement at the predecessor's epoch", first.Live.Epoch, second.Live.Epoch)
	}
	if second.Cached || second.EnergyKWh == first.EnergyKWh {
		t.Errorf("replacement stream served the predecessor's year (cached=%v, energy %v both times)", second.Cached, second.EnergyKWh)
	}
	if got, want := second.EnergyKWh-first.EnergyKWh, 8000.0; math.Abs(got-want) > 1e-6 {
		t.Errorf("energy moved by %v kWh, want %v (hour 0 observed at 9 MW instead of 1 MW)", got, want)
	}
}

// TestEngineLiveStaleSnapshotCountsMiss re-registers a replaced stream:
// its snapshot is older than the live slot, which holds the
// replacement's year, so the reader computes its own year from the
// memoized simulated one. The counters tally what was served: the slot
// lookup is a miss, the simulated year a hit, and the result is not
// cached.
func TestEngineLiveStaleSnapshotCountsMiss(t *testing.T) {
	old, err := NewStream("Frontier", 0, 24)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewStreamRegistry(old)
	eng := NewEngine(WithLiveStreams(reg))
	ctx := context.Background()
	req := AssessRequest{System: "Frontier", Source: SourceLive}
	if _, err := eng.Ingest(Sample{System: "Frontier", Hour: 0, Power: 1e6}); err != nil {
		t.Fatal(err)
	}
	first, err := eng.Assess(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	replacement, err := NewStream("Frontier", 0, 24)
	if err != nil {
		t.Fatal(err)
	}
	reg.Register(replacement)
	if _, err := eng.Ingest(Sample{System: "Frontier", Hour: 0, Power: 9e6}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Assess(ctx, req); err != nil {
		t.Fatal(err)
	}

	reg.Register(old)
	before := eng.CacheStats()
	res, err := eng.Assess(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	after := eng.CacheStats()
	if res.Cached || res.EnergyKWh != first.EnergyKWh {
		t.Errorf("re-registered stream served cached=%v energy %v, want its own year (%v) uncached", res.Cached, res.EnergyKWh, first.EnergyKWh)
	}
	if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != 1 || misses != 1 {
		t.Errorf("an uncached live result counted %d hits and %d misses, want 1 and 1 (slot missed, simulated year hit)", hits, misses)
	}
}

// TestEngineLiveReplacementsKeepOneSlot replaces a stream with a
// same-label one several times, assessing live after each: every
// replacement takes its predecessor's live slot, so the memo keeps the
// simulated year and one live year. A reader that resolves a replaced
// stream again is answered from its own samples and leaves the newer
// instance's year in the slot.
func TestEngineLiveReplacementsKeepOneSlot(t *testing.T) {
	const replacements = 5
	first, err := NewStream("Frontier", 0, 24)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewStreamRegistry(first)
	eng := NewEngine(WithLiveStreams(reg))
	ctx := context.Background()
	req := AssessRequest{System: "Frontier", Source: SourceLive}
	cfg := mustResolve(t, req)
	assess := func(power units.Watts) *AssessResult {
		t.Helper()
		if _, err := eng.Ingest(Sample{System: "Frontier", Hour: 0, Power: power}); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Assess(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	assess(1e6)
	if n := eng.CacheStats().Entries; n != 2 {
		t.Fatalf("%d memo entries after the first live assess, want 2", n)
	}
	streams := []*Stream{first}
	var last *AssessResult
	for i := 1; i <= replacements; i++ {
		s, err := NewStream("Frontier", 0, 24)
		if err != nil {
			t.Fatal(err)
		}
		reg.Register(s)
		streams = append(streams, s)
		if last = assess(units.Watts(1e6 * float64(i+1))); last.Cached {
			t.Errorf("replacement %d served a predecessor's year", i)
		}
		if n := eng.CacheStats().Entries; n != 2 {
			t.Errorf("%d memo entries after replacement %d, want 2", n, i)
		}
	}
	newest := streams[replacements]
	key := liveKey(cfg.Fingerprint(), newest)
	slot, ok := eng.memo.Lookup(key)
	if !ok || slot.instance != newest.Window().Instance {
		t.Fatalf("live slot resident=%v, want the newest instance's year", ok)
	}

	reg.Register(first)
	stale, err := eng.Assess(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if stale.Cached || stale.EnergyKWh == last.EnergyKWh {
		t.Errorf("replaced stream answered from the newest instance's year (cached=%v)", stale.Cached)
	}
	if y, ok := eng.memo.Lookup(key); !ok || y != slot {
		t.Errorf("a replaced stream's reader overwrote the newest instance's slot")
	}
	reg.Register(newest)
	if res, err := eng.Assess(ctx, req); err != nil || !res.Cached {
		t.Errorf("newest instance's year not served from its slot (cached=%v, %v)", res != nil && res.Cached, err)
	}
}

// TestLiveChurnKeepsSimulatedYearsResident ticks a live stream beside
// simulated reads on a memo that holds exactly the working set: two simulated years, the live configuration's base year and one
// live year. Each tick must take the slot of the year it supersedes, so
// no read ever misses.
func TestLiveChurnKeepsSimulatedYearsResident(t *testing.T) {
	stream, err := NewStream("", 0, 168)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(WithCache(4), WithLiveStreams(NewStreamRegistry(stream)))
	ctx := context.Background()
	live := AssessRequest{System: "Frontier", Source: SourceLive}
	reads := []AssessRequest{{System: "Marconi"}, {System: "Polaris"}}
	for _, r := range append(reads, live) {
		if _, err := eng.Assess(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	hour, misses := 0, 0
	for round := 0; round < 20; round++ {
		for tick := 0; tick < 3; tick++ {
			if _, err := eng.Ingest(Sample{Hour: hour, Power: 1e6}); err != nil {
				t.Fatal(err)
			}
			hour++
			res, err := eng.Assess(ctx, live)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cached || res.Live.Epoch != uint64(hour) {
				t.Fatalf("tick at epoch %d: cached=%v epoch=%d", hour, res.Cached, res.Live.Epoch)
			}
		}
		for _, r := range reads {
			res, err := eng.Assess(ctx, r)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Cached {
				misses++
			}
		}
	}
	if misses != 0 {
		t.Errorf("%d of 40 simulated reads missed: live ticks evicted simulated years", misses)
	}
	if n := eng.CacheStats().Entries; n != 4 {
		t.Errorf("%d memo entries, want 4", n)
	}
}

// residentLive returns the year and epoch in the pair's one live slot,
// if it is resident.
func residentLive(eng *Engine, cfg Config, stream *Stream) (core.Annual, uint64, bool) {
	key := liveKey(cfg.Fingerprint(), stream)
	y, ok := eng.memo.Lookup(key)
	if !ok {
		return core.Annual{}, 0, false
	}
	return y.Annual, y.epoch, true
}

// TestLiveHeadsUnderIngestRace races feeds against live assessments of
// several configurations. Once quiet, each (stream, configuration) pair
// holds exactly one live year — the newest — and its totals and
// intensities are bit-identical to a fresh splice of the final window
// over the simulated year, with no hourly channel kept.
func TestLiveHeadsUnderIngestRace(t *testing.T) {
	const window, feeders, assessors, samples = 64, 4, 4, 200
	eng, stream := newLiveEngine(t, "", window)
	ctx := context.Background()
	var reqs []AssessRequest
	for _, system := range []string{"Frontier", "Marconi"} {
		for seed := uint64(1); seed <= 2; seed++ {
			s := seed
			reqs = append(reqs, AssessRequest{System: system, Seed: &s, Source: SourceLive})
		}
	}
	var wg sync.WaitGroup
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for i := 0; i < samples; i++ {
				if _, err := eng.Ingest(Sample{Hour: i % window, Power: units.Watts(1e6 * float64(f+1))}); err != nil {
					t.Error(err)
					return
				}
			}
		}(f)
	}
	for a := 0; a < assessors; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < 2*samples; i++ {
				if _, err := eng.Assess(ctx, reqs[(a+i)%len(reqs)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(a)
	}
	wg.Wait()

	w := stream.Window()
	for _, req := range reqs {
		cfg := mustResolve(t, req)
		got, info, _, err := eng.liveAnnualFor(cfg, subUnplanned, false)
		if err != nil {
			t.Fatal(err)
		}
		if info.Epoch != w.Epoch {
			t.Fatalf("quiet stream at epoch %d, assessment at %d", w.Epoch, info.Epoch)
		}
		base, err := cfg.Assess()
		if err != nil {
			t.Fatal(err)
		}
		want := core.AnnualFrom(base.System, w.SpliceInto(base.Hourly))
		want.Hourly = series.Series{} // a live year is priced without its timeline
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s seed %d: live year differs from a fresh splice", cfg.System.Name, cfg.Seed)
		}
		if y, epoch, ok := residentLive(eng, cfg.Config, stream); !ok || epoch != w.Epoch || !reflect.DeepEqual(y, want) {
			t.Errorf("%s seed %d: live slot resident=%v at epoch %d, want the newest year (epoch %d)",
				cfg.System.Name, cfg.Seed, ok, epoch, w.Epoch)
		}
	}
}

// TestLiveTickKeepsFullShardsResident fills a 32-entry memo to
// capacity — the live slot, its base year and 30 simulated Marconi
// years — and ticks the stream between full read passes. A tick replaces
// its pair's one slot in place, so it never evicts a simulated year.
func TestLiveTickKeepsFullShardsResident(t *testing.T) {
	const capacity, ticks = 32, 50
	stream, err := NewStream("", 0, 168)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(WithCache(capacity), WithLiveStreams(NewStreamRegistry(stream)))
	ctx := context.Background()
	live := AssessRequest{System: "Frontier", Source: SourceLive}
	var reads []AssessRequest
	for seed := uint64(1); len(reads) < capacity-2; seed++ {
		s := seed
		reads = append(reads, AssessRequest{System: "Marconi", Seed: &s})
	}
	for _, r := range append(reads, live) {
		if _, err := eng.Assess(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	if n := eng.CacheStats().Entries; n != capacity {
		t.Fatalf("%d memo entries after filling, want %d", n, capacity)
	}
	before := eng.CacheStats()
	misses := 0
	for tick := 1; tick <= ticks; tick++ {
		if _, err := eng.Ingest(Sample{Hour: tick - 1, Power: 1e6}); err != nil {
			t.Fatal(err)
		}
		res, err := eng.Assess(ctx, live)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached || res.Live.Epoch != uint64(tick) {
			t.Fatalf("tick %d: cached=%v epoch=%d", tick, res.Cached, res.Live.Epoch)
		}
		for _, r := range reads {
			res, err := eng.Assess(ctx, r)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Cached {
				misses++
			}
		}
	}
	if misses != 0 {
		t.Errorf("%d of %d simulated reads missed: live ticks evicted simulated years", misses, ticks*len(reads))
	}
	// A tick that replaces its slot counts one miss; its base year and
	// every read are hits.
	after := eng.CacheStats()
	if after.Entries != capacity || after.Misses-before.Misses != ticks || after.Hits-before.Hits != uint64(ticks*(1+len(reads))) {
		t.Errorf("over %d ticks: %d misses, %d hits, %d entries; want %d, %d, %d",
			ticks, after.Misses-before.Misses, after.Hits-before.Hits, after.Entries, ticks, ticks*(1+len(reads)), capacity)
	}
}
