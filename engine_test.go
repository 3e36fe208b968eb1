package thirstyflops

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"thirstyflops/internal/stats"
)

// marshalNormalizedErr serializes a result with the cache marker cleared,
// so first and repeat assessments of the same configuration compare
// equal. The error-returning form is safe to call off the test goroutine
// (t.Fatal must not run on worker goroutines).
func marshalNormalizedErr(r *AssessResult) (string, error) {
	c := *r
	c.Cached = false
	raw, err := json.Marshal(c)
	return string(raw), err
}

// marshalNormalized is the fatal-on-error form for the test goroutine.
func marshalNormalized(t *testing.T, r *AssessResult) string {
	t.Helper()
	s, err := marshalNormalizedErr(r)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEngineAssessBundled(t *testing.T) {
	eng := NewEngine()
	res, err := eng.Assess(context.Background(), AssessRequest{
		System: "Frontier", Scenarios: true, Withdrawal: true, IncludeSeries: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.System != "Frontier" || res.Site != "Oak Ridge" || res.Region != "Tennessee" {
		t.Errorf("metadata wrong: %+v", res)
	}
	if res.Years != DefaultLifetimeYears {
		t.Errorf("years = %v, want default %d", res.Years, DefaultLifetimeYears)
	}
	if res.DirectL <= 0 || res.IndirectL <= 0 || res.EmbodiedL <= 0 || res.CarbonKg <= 0 {
		t.Error("footprints missing")
	}
	if res.OperationalL != res.DirectL+res.IndirectL {
		t.Error("operational != direct + indirect")
	}
	if res.LifetimeTotalL <= res.EmbodiedL {
		t.Error("lifetime should exceed embodied alone")
	}
	if len(res.Scenarios) != 5 {
		t.Errorf("scenario count = %d, want 5", len(res.Scenarios))
	}
	if res.Withdrawal == nil || res.Withdrawal.Gross <= 0 {
		t.Error("withdrawal section missing")
	}
	if res.Series == nil || res.Series.Len() != 8760 {
		t.Error("hourly series missing")
	}
	if err := res.Series.Validate(); err != nil {
		t.Errorf("attached series invalid: %v", err)
	}
	var shares float64
	for _, v := range res.EmbodiedShares {
		shares += v
	}
	if shares < 0.99 || shares > 1.01 {
		t.Errorf("embodied shares sum to %v", shares)
	}
	// The whole result survives a JSON round trip (the serving contract).
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back AssessResult
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.System != res.System || back.LifetimeTotalL != res.LifetimeTotalL {
		t.Error("result mangled by JSON round trip")
	}
}

func TestEngineMatchesDirectAssessment(t *testing.T) {
	eng := NewEngine()
	res, err := eng.Assess(context.Background(), AssessRequest{System: "Marconi"})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := SystemConfig("Marconi")
	if err != nil {
		t.Fatal(err)
	}
	a, err := cfg.Assess()
	if err != nil {
		t.Fatal(err)
	}
	if res.EnergyKWh != float64(a.Energy) || res.DirectL != float64(a.Direct) ||
		res.IndirectL != float64(a.Indirect) {
		t.Error("engine result disagrees with direct Config.Assess")
	}
}

func TestEngineCacheHit(t *testing.T) {
	eng := NewEngine()
	ctx := context.Background()
	req := AssessRequest{System: "Polaris", Scenarios: true}

	first, err := eng.Assess(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first assessment reported cached")
	}
	second, err := eng.Assess(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("second assessment of the same config did not hit the cache")
	}
	st := eng.CacheStats()
	if st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 miss, 1 hit, 1 entry (no re-simulation)", st)
	}
	if marshalNormalized(t, first) != marshalNormalized(t, second) {
		t.Error("cached result differs from the original")
	}

	// A different seed is a different configuration: a miss, not a hit.
	seed := uint64(7)
	third, err := eng.Assess(ctx, AssessRequest{System: "Polaris", Seed: &seed})
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Error("different seed served from cache")
	}
	if marshalNormalized(t, third) == marshalNormalized(t, first) {
		t.Error("different seed produced an identical assessment")
	}
}

func TestEngineCachedAssessmentIsFaster(t *testing.T) {
	eng := NewEngine()
	ctx := context.Background()
	req := AssessRequest{System: "Fugaku"}

	start := time.Now()
	if _, err := eng.Assess(ctx, req); err != nil {
		t.Fatal(err)
	}
	cold := time.Since(start)

	const repeats = 5
	start = time.Now()
	for i := 0; i < repeats; i++ {
		if _, err := eng.Assess(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	warm := time.Since(start) / repeats

	if warm*2 >= cold {
		t.Errorf("cached assessment not measurably faster: cold %v, warm %v", cold, warm)
	}
}

// TestEngineMemoHitAllocations pins the allocations of a memo hit: the
// config, fingerprint and derived sections do constant work, with no
// pass over the hourly year. A bundled system's configuration is copied
// from its template, its key resumed and its breakdown read, so a plain
// hit allocates only the result and its embodied shares map (header and
// group); each optional section adds one. The collector is off while
// measuring: its timing would otherwise add an allocation to some runs.
func TestEngineMemoHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins do not hold under -race: sync.Pool.Put drops 1 in 4 items, so the pooled fingerprint hasher is reallocated at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	eng := NewEngine()
	ctx := context.Background()
	for _, tc := range []struct {
		req  AssessRequest
		want float64
	}{
		{AssessRequest{System: "Frontier"}, 3},
		{AssessRequest{System: "Frontier", Scenarios: true}, 4},
		{AssessRequest{System: "Frontier", Withdrawal: true}, 4},
	} {
		if _, err := eng.Assess(ctx, tc.req); err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(20, func() {
			if res, err := eng.Assess(ctx, tc.req); err != nil || !res.Cached {
				t.Fatalf("memo hit: cached=%v err=%v", res != nil && res.Cached, err)
			}
		})
		if n > tc.want {
			t.Errorf("%+v: memo hit allocates %v times, want <= %v", tc.req, n, tc.want)
		}
	}
}

func TestEngineCacheEviction(t *testing.T) {
	eng := NewEngine(WithCache(1))
	ctx := context.Background()
	for _, sys := range []string{"Marconi", "Fugaku", "Marconi"} {
		if _, err := eng.Assess(ctx, AssessRequest{System: sys}); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.CacheStats()
	// Fugaku evicted Marconi, so the third request misses again.
	if st.Entries != 1 || st.Misses != 3 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 3 misses into a single-entry cache", st)
	}

	uncached := NewEngine(WithCache(0))
	if _, err := uncached.Assess(ctx, AssessRequest{System: "Marconi"}); err != nil {
		t.Fatal(err)
	}
	if st := uncached.CacheStats(); st.Entries != 0 {
		t.Errorf("disabled cache stored %d entries", st.Entries)
	}
}

func TestEngineAssessManyMatchesSequential(t *testing.T) {
	// The worker-pool fan-out must return byte-identical results to
	// one-at-a-time assessment. Run with -race to verify safety.
	var reqs []AssessRequest
	for _, sys := range SystemNames() {
		for _, seed := range []uint64{1, 2} {
			s := seed
			reqs = append(reqs, AssessRequest{System: sys, Seed: &s, Scenarios: true})
		}
	}

	ctx := context.Background()
	sequential := NewEngine()
	want := make([]string, len(reqs))
	for i, req := range reqs {
		res, err := sequential.Assess(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = marshalNormalized(t, res)
	}

	concurrent := NewEngine(WithWorkers(8))
	results, err := concurrent.AssessMany(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(reqs) {
		t.Fatalf("result count = %d, want %d", len(results), len(reqs))
	}
	for i, res := range results {
		if res == nil {
			t.Fatalf("result %d missing", i)
		}
		if got := marshalNormalized(t, res); got != want[i] {
			t.Errorf("concurrent result %d differs from sequential", i)
		}
	}

	// Duplicate requests collapse onto one simulation each.
	dupes := NewEngine(WithWorkers(8))
	same := make([]AssessRequest, 16)
	for i := range same {
		same[i] = AssessRequest{System: "Frontier"}
	}
	if _, err := dupes.AssessMany(ctx, same); err != nil {
		t.Fatal(err)
	}
	if st := dupes.CacheStats(); st.Misses != 1 {
		t.Errorf("16 identical requests simulated %d times, want 1", st.Misses)
	}
}

func TestEngineAssessManyReportsPerRequestErrors(t *testing.T) {
	eng := NewEngine()
	results, err := eng.AssessMany(context.Background(), []AssessRequest{
		{System: "Marconi"},
		{System: "HAL9000"},
	})
	if err == nil {
		t.Fatal("bad request slipped through")
	}
	if results[0] == nil || results[1] != nil {
		t.Error("good request should succeed, bad request should leave a nil slot")
	}
}

func TestEngineCustomDocument(t *testing.T) {
	doc := ConfigDocument{}
	raw := `{
		"system": {
			"name": "TestRig", "nodes": 8,
			"cpu": {"catalog": "AMD EPYC 7532"}, "cpus_per_node": 2,
			"dram_gb_per_node": 128, "peak_power_mw": 0.02, "pue": 1.3
		},
		"site_name": "Lemont", "region": "Illinois"
	}`
	if err := json.Unmarshal([]byte(raw), &doc); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine()
	res, err := eng.Assess(context.Background(), AssessRequest{Custom: &doc})
	if err != nil {
		t.Fatal(err)
	}
	if res.System != "TestRig" || res.Site != "Lemont" || res.OperationalL <= 0 {
		t.Errorf("custom assessment wrong: %+v", res)
	}
}

func TestEngineRequestValidation(t *testing.T) {
	eng := NewEngine()
	ctx := context.Background()
	if _, err := eng.Assess(ctx, AssessRequest{}); err == nil {
		t.Error("empty request accepted")
	}
	if _, err := eng.Assess(ctx, AssessRequest{System: "Marconi", Custom: &ConfigDocument{}}); err == nil {
		t.Error("both system and custom accepted")
	}
	if _, err := eng.Assess(ctx, AssessRequest{System: "HAL9000"}); err == nil {
		t.Error("unknown system accepted")
	}
	for _, years := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := eng.Assess(ctx, AssessRequest{System: "Marconi", Years: years}); err == nil {
			t.Errorf("lifetime %v accepted", years)
		}
	}
}

func TestEngineContextCancellation(t *testing.T) {
	eng := NewEngine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Assess(ctx, AssessRequest{System: "Marconi"}); err == nil {
		t.Error("canceled context accepted by Assess")
	}
	if _, err := eng.Water500(ctx, Water500Request{}); err == nil {
		t.Error("canceled context accepted by Water500")
	}
}

func TestEngineSweep(t *testing.T) {
	eng := NewEngine()
	res, err := eng.Sweep(context.Background(), SweepRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Systems) != 4 {
		t.Fatalf("system count = %d, want all 4 bundled", len(res.Systems))
	}
	for _, s := range res.Systems {
		if len(s.Scenarios) != 5 {
			t.Errorf("%s: %d scenarios, want 5", s.System, len(s.Scenarios))
		}
	}
	sub, err := eng.Sweep(context.Background(), SweepRequest{Systems: []string{"Fugaku"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Systems) != 1 || sub.Systems[0].System != "Fugaku" {
		t.Errorf("filtered sweep wrong: %+v", sub.Systems)
	}
}

func TestEngineWater500(t *testing.T) {
	eng := NewEngine()
	res, err := eng.Water500(context.Background(), Water500Request{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 4 || res.Entries[0].Rank != 1 {
		t.Fatalf("ranking malformed: %+v", res.Entries)
	}
	// The ranking reuses the per-system assessments: 4 configs, 4 misses.
	if st := eng.CacheStats(); st.Misses != 4 {
		t.Errorf("misses = %d, want 4", st.Misses)
	}
	// Re-ranking is pure cache hits.
	if _, err := eng.Water500(context.Background(), Water500Request{}); err != nil {
		t.Fatal(err)
	}
	if st := eng.CacheStats(); st.Misses != 4 || st.Hits != 4 {
		t.Errorf("stats after re-rank = %+v, want 4 misses and 4 hits", eng.CacheStats())
	}
}

func TestEngineShardedCacheConcurrentEviction(t *testing.T) {
	// Hammer a small memo with more distinct configurations than it
	// can hold from many goroutines (run with -race): the entry
	// count must respect the bound and every result must stay correct.
	eng := NewEngine(WithCache(16), WithWorkers(8))
	ctx := context.Background()

	want := map[uint64]string{}
	for seed := uint64(0); seed < 24; seed++ {
		s := seed
		res, err := eng.Assess(ctx, AssessRequest{System: "Marconi", Seed: &s})
		if err != nil {
			t.Fatal(err)
		}
		want[seed] = marshalNormalized(t, res)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				seed := uint64((w*7 + i) % 24)
				s := seed
				res, err := eng.Assess(ctx, AssessRequest{System: "Marconi", Seed: &s})
				if err != nil {
					t.Errorf("seed %d: %v", seed, err)
					return
				}
				got, err := marshalNormalizedErr(res)
				if err != nil {
					t.Errorf("seed %d: %v", seed, err)
					return
				}
				if got != want[seed] {
					t.Errorf("seed %d: concurrent result diverged", seed)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := eng.CacheStats(); st.Entries > 16 {
		t.Errorf("entries %d exceed the WithCache(16) bound", st.Entries)
	}
}

func TestEngineLRUOrderingAcrossHits(t *testing.T) {
	// Capacity 2: touching the oldest entry must protect it from the
	// next eviction (the O(1) list must preserve exact LRU semantics,
	// not just bounded size).
	eng := NewEngine(WithCache(2))
	ctx := context.Background()
	assess := func(sys string) {
		t.Helper()
		if _, err := eng.Assess(ctx, AssessRequest{System: sys}); err != nil {
			t.Fatal(err)
		}
	}
	assess("Marconi") // miss
	assess("Fugaku")  // miss
	assess("Marconi") // hit: Fugaku becomes the eviction candidate
	assess("Polaris") // miss: evicts Fugaku
	assess("Marconi") // must still be resident
	st := eng.CacheStats()
	if st.Misses != 3 || st.Hits != 2 {
		t.Errorf("stats = %+v, want 3 misses and 2 hits (LRU protected the touched entry)", st)
	}
	assess("Fugaku") // evicted above: a fourth miss
	if st := eng.CacheStats(); st.Misses != 4 {
		t.Errorf("misses = %d, want 4 (Fugaku was evicted)", st.Misses)
	}
}

// TestEngineLRUExactAcrossWholeMemo fills a 32-entry memo, touches every
// entry in reverse order with no insert between the touches, and inserts
// a 33rd year. Recency is exact over the whole memo, so the victim is the
// entry touched first: seeds 0–30 stay resident and seed 31 is evicted.
func TestEngineLRUExactAcrossWholeMemo(t *testing.T) {
	const capacity = 32
	eng := NewEngine(WithCache(capacity))
	ctx := context.Background()
	assess := func(seed uint64) bool {
		t.Helper()
		res, err := eng.Assess(ctx, AssessRequest{System: "Marconi", Seed: &seed})
		if err != nil {
			t.Fatal(err)
		}
		return res.Cached
	}
	for seed := uint64(0); seed < capacity; seed++ {
		assess(seed)
	}
	for seed := uint64(capacity); seed > 0; seed-- {
		if !assess(seed - 1) {
			t.Fatalf("seed %d missed while the memo held every seed", seed-1)
		}
	}
	assess(capacity)
	for seed := uint64(0); seed < capacity-1; seed++ {
		if !assess(seed) {
			t.Errorf("seed %d evicted, want seed %d (the least recently used)", seed, capacity-1)
		}
	}
	if assess(capacity - 1) {
		t.Errorf("seed %d still resident after a 33rd year was inserted", capacity-1)
	}
}

// TestEngineWater500Cancellation cancels mid-flight: the hook on the
// first assessed system cancels the context, so the remaining systems
// see it inside the scheduler's run callback. The call fails whole —
// no partial ranking — and every canceled unit names its system.
func TestEngineWater500Cancellation(t *testing.T) {
	for _, window := range []time.Duration{0, time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		var once sync.Once
		eng := NewEngine(WithWorkers(1), WithGangWindow(window),
			WithAssessHook(func(string) error {
				once.Do(cancel)
				return nil
			}))
		res, err := eng.Water500(ctx, Water500Request{})
		cancel()
		if res != nil {
			t.Errorf("window %v: canceled Water500 returned a partial result", window)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("window %v: error %v does not wrap context.Canceled", window, err)
		}
		if err == nil || !strings.Contains(err.Error(), "system ") {
			t.Errorf("window %v: error %v does not name the canceled system", window, err)
		}
	}
}

func TestEngineShardOptionBounds(t *testing.T) {
	ctx := context.Background()
	for _, cacheN := range []int{1, 3, 5, 64} {
		eng := NewEngine(WithCache(cacheN))
		for _, sys := range SystemNames() {
			if _, err := eng.Assess(ctx, AssessRequest{System: sys}); err != nil {
				t.Fatal(err)
			}
		}
		if st := eng.CacheStats(); st.Entries > cacheN {
			t.Errorf("WithCache(%d): %d entries exceed bound", cacheN, st.Entries)
		}
	}
}

func TestEngineFingerprintDistinguishesRequests(t *testing.T) {
	// Distinct custom documents must never share cache entries (the
	// streaming fingerprint covers every simulated field).
	eng := NewEngine()
	ctx := context.Background()
	mk := func(pue float64) *ConfigDocument {
		raw := fmt.Sprintf(`{
			"system": {
				"name": "Rig", "nodes": 8,
				"cpu": {"catalog": "AMD EPYC 7532"}, "cpus_per_node": 2,
				"dram_gb_per_node": 128, "peak_power_mw": 0.02, "pue": %v
			},
			"site_name": "Lemont", "region": "Illinois"
		}`, pue)
		var doc ConfigDocument
		if err := json.Unmarshal([]byte(raw), &doc); err != nil {
			t.Fatal(err)
		}
		return &doc
	}
	a, err := eng.Assess(ctx, AssessRequest{Custom: mk(1.2)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Assess(ctx, AssessRequest{Custom: mk(1.5)})
	if err != nil {
		t.Fatal(err)
	}
	if b.Cached {
		t.Error("different PUE served from cache")
	}
	if a.IndirectL == b.IndirectL {
		t.Error("PUE change did not alter the assessment")
	}
}

// BenchmarkEngineAssessCold is the production cold path: the Engine's
// assessment cache is disabled so the hourly combination loop runs every
// time, but the substrate layer (weather/grid/demand years, pure
// functions of identity and seed) is shared across iterations — exactly
// what a sweep over systems × scenarios pays per new configuration.
func BenchmarkEngineAssessCold(b *testing.B) {
	req := AssessRequest{System: "Frontier"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// A cache-disabled engine simulates every time.
		eng := NewEngine(WithCache(0))
		if _, err := eng.Assess(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineAssessColdIsolated defeats both the Engine cache and the
// substrate layer with a fresh seed per iteration: the full generator
// cost, the absolute worst case.
func BenchmarkEngineAssessColdIsolated(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := NewEngine(WithCache(0))
		seed := uint64(i) + 1
		if _, err := eng.Assess(context.Background(), AssessRequest{System: "Frontier", Seed: &seed}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineAssessLiveTick is one live telemetry tick: an Ingest
// advances the stream epoch, so the following Assess(source=live)
// misses the memo and splices the window over the memoized simulated
// year. It gates the live-miss path, which the daemon's live benchmark
// (served from the epoch cache) does not reach.
func BenchmarkEngineAssessLiveTick(b *testing.B) {
	const window = 336
	stream, err := NewStream("", 0, window)
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine(WithLiveStreams(NewStreamRegistry(stream)))
	ctx := context.Background()
	req := AssessRequest{System: "Frontier", Source: SourceLive}
	if _, err := eng.Assess(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Ingest(Sample{Hour: i % window, Power: 2.1e7}); err != nil {
			b.Fatal(err)
		}
		res, err := eng.Assess(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if res.Cached {
			b.Fatal("a fresh epoch was served from the memo")
		}
	}
}

// BenchmarkEngineAssessLiveTickMidYear is BenchmarkEngineAssessLiveTick
// with the window walking through the year: each tick ingests the hour
// after the last, so the window's first hour advances and the fold
// resumes from the simulated year's checkpoint at or before it. A stream
// that reaches the end of the year is replaced by a fresh one.
func BenchmarkEngineAssessLiveTickMidYear(b *testing.B) {
	const window = 336
	stream, err := NewStream("", 0, window)
	if err != nil {
		b.Fatal(err)
	}
	reg := NewStreamRegistry(stream)
	eng := NewEngine(WithLiveStreams(reg))
	ctx := context.Background()
	req := AssessRequest{System: "Frontier", Source: SourceLive}
	if _, err := eng.Assess(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i, hour := 0, 0; i < b.N; i, hour = i+1, hour+1 {
		if hour == stats.HoursPerYear {
			if stream, err = NewStream("", 0, window); err != nil {
				b.Fatal(err)
			}
			reg.Register(stream)
			hour = 0
		}
		if _, err := eng.Ingest(Sample{Hour: hour, Power: 2.1e7}); err != nil {
			b.Fatal(err)
		}
		res, err := eng.Assess(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if res.Cached {
			b.Fatal("a fresh epoch was served from the memo")
		}
	}
}

func BenchmarkEngineAssessCached(b *testing.B) {
	eng := NewEngine()
	req := AssessRequest{System: "Frontier"}
	if _, err := eng.Assess(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Assess(context.Background(), req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineAssessCachedParallel measures the cached path under
// concurrent load across distinct configurations, which all take the
// memo's one lock.
func BenchmarkEngineAssessCachedParallel(b *testing.B) {
	eng := NewEngine(WithCache(64))
	ctx := context.Background()
	seeds := [8]uint64{1, 2, 3, 4, 5, 6, 7, 8}
	for i := range seeds {
		s := seeds[i]
		if _, err := eng.Assess(ctx, AssessRequest{System: "Frontier", Seed: &s}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			s := seeds[i&7]
			i++
			if _, err := eng.Assess(ctx, AssessRequest{System: "Frontier", Seed: &s}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
