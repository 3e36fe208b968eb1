package thirstyflops

// Planner-effectiveness tests and benchmarks: a shuffled multi-site
// sweep executed through the substrate-aware planner must generate each
// shared substrate year exactly once, even under a bounded substrate
// cache. BenchmarkSweepPlanned records the wall-clock side of the same
// story in BENCH.json, gated by cmd/benchcheck in `make bench`.

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"thirstyflops/internal/fingerprint"
	"thirstyflops/internal/plan"
	"thirstyflops/internal/substrate"
)

// sweepSystems are the four bundled machines: four distinct sites and
// grid regions, one shared demand model.
var sweepSystems = []string{"Marconi", "Fugaku", "Polaris", "Frontier"}

// interleavedSweep deals systems x seeds x years into the planner's
// worst-case arrival order — year-major, so consecutive requests never
// share a substrate — the shape of a multi-tenant sweep arriving as an
// unordered batch.
func interleavedSweep(systems []string, seeds []uint64, years []int) []AssessRequest {
	var reqs []AssessRequest
	for _, year := range years {
		for si := range seeds {
			for _, sys := range systems {
				y := year
				reqs = append(reqs, AssessRequest{System: sys, Seed: &seeds[si], Year: &y})
			}
		}
	}
	return reqs
}

// restoreSubstrate pins the process-global substrate layer back to its
// default shape after a test that resizes it.
func restoreSubstrate(t *testing.T) {
	t.Helper()
	t.Cleanup(func() { substrate.SetCapacity(substrate.DefaultCapacity) })
}

// generationsDuring runs fn against a freshly reset substrate layer of
// the given capacity and returns how many years it generated (layer
// misses; every miss is one generator run).
func generationsDuring(t *testing.T, capacity int, fn func()) uint64 {
	t.Helper()
	substrate.SetCapacity(capacity)
	before := substrate.Stats()
	fn()
	after := substrate.Stats()
	return after.Misses - before.Misses
}

// TestPlannerNeverRegeneratesSharedSubstrate is the planner's core
// property: for any arrival order of a sweep whose requests share
// substrates, planned sequential execution generates each distinct year
// exactly once — even with a substrate cache squeezed to two entries —
// because requests sharing a substrate run consecutively.
func TestPlannerNeverRegeneratesSharedSubstrate(t *testing.T) {
	restoreSubstrate(t)
	seeds := []uint64{1, 2}
	years := []int{2030, 2031, 2032}
	base := interleavedSweep(sweepSystems, seeds, years)

	// Distinct years per cache: grid/WUE/wet-bulb are (site-or-region,
	// seed)-keyed — systems x seeds each — while the bundled systems
	// share one demand model, so utilization is seeds-keyed.
	groups := len(sweepSystems) * len(seeds)
	wantGenerations := uint64(3*groups + len(seeds))

	for trial := 0; trial < 8; trial++ {
		reqs := append([]AssessRequest(nil), base...)
		rand.New(rand.NewSource(int64(trial))).Shuffle(len(reqs), func(i, j int) {
			reqs[i], reqs[j] = reqs[j], reqs[i]
		})
		eng := NewEngine(WithCache(0), WithWorkers(1))
		got := generationsDuring(t, 2, func() {
			if _, err := eng.AssessMany(context.Background(), reqs); err != nil {
				t.Fatal(err)
			}
		})
		if got != wantGenerations {
			t.Fatalf("trial %d: planned execution generated %d years, want exactly %d (one per distinct substrate year)",
				trial, got, wantGenerations)
		}
		// The engine's traced counters tally with the layer: every
		// generation of this run — including wet-bulb years generated
		// inside WUE misses — is attributed to planned execution.
		stats := eng.CacheStats().Substrate
		if stats.PlannedMisses != wantGenerations {
			t.Errorf("trial %d: CacheStats planned misses = %d, want %d", trial, stats.PlannedMisses, wantGenerations)
		}
		if stats.UnplannedHits != 0 || stats.UnplannedMisses != 0 {
			t.Errorf("trial %d: batch execution leaked into unplanned counters: %+v", trial, stats)
		}
	}
}

// TestSweepAndSingleAssessSplitSubstrateCounters asserts the
// planned/unplanned attribution: Engine.Sweep batches execute as
// planned, one-off Assess calls as unplanned.
func TestSweepAndSingleAssessSplitSubstrateCounters(t *testing.T) {
	restoreSubstrate(t)
	substrate.SetCapacity(substrate.DefaultCapacity)
	eng := NewEngine(WithCache(0))
	if _, err := eng.Sweep(context.Background(), SweepRequest{Systems: []string{"Marconi", "Fugaku"}}); err != nil {
		t.Fatal(err)
	}
	mid := eng.CacheStats().Substrate
	if mid.PlannedHits+mid.PlannedMisses == 0 {
		t.Error("Sweep recorded no planned substrate lookups")
	}
	if mid.UnplannedHits+mid.UnplannedMisses != 0 {
		t.Errorf("Sweep recorded unplanned lookups: %+v", mid)
	}
	if _, err := eng.Assess(context.Background(), AssessRequest{System: "Polaris"}); err != nil {
		t.Fatal(err)
	}
	end := eng.CacheStats().Substrate
	if end.UnplannedHits+end.UnplannedMisses == 0 {
		t.Error("single Assess recorded no unplanned substrate lookups")
	}
}

// TestAssessBatchReportsEveryCompletion asserts the job queue's progress
// contract: onResult fires exactly once per request, with res nil
// exactly when err is non-nil, and the returned slice matches.
func TestAssessBatchReportsEveryCompletion(t *testing.T) {
	eng := NewEngine(WithWorkers(2))
	reqs := []AssessRequest{
		{System: "Marconi"}, {System: "Atlantis"}, {System: "Fugaku"}, {System: "Marconi"},
	}
	type event struct {
		res *AssessResult
		err error
	}
	var mu sync.Mutex
	events := map[int][]event{}
	results, err := eng.AssessBatch(context.Background(), reqs, func(i int, res *AssessResult, err error) {
		mu.Lock()
		events[i] = append(events[i], event{res, err})
		mu.Unlock()
	})
	if err == nil {
		t.Fatal("joined error missing the unknown-system failure")
	}
	if len(events) != len(reqs) {
		t.Fatalf("onResult covered %d of %d requests", len(events), len(reqs))
	}
	for i, evs := range events {
		if len(evs) != 1 {
			t.Fatalf("request %d reported %d times", i, len(evs))
		}
		if (evs[0].res == nil) != (evs[0].err != nil) {
			t.Fatalf("request %d: res/err not mutually exclusive: %+v", i, evs[0])
		}
		if (results[i] == nil) != (evs[0].res == nil) {
			t.Fatalf("request %d: returned slice disagrees with onResult", i)
		}
	}
	if results[1] != nil || results[0] == nil || results[2] == nil || results[3] == nil {
		t.Fatalf("unexpected result shape: %v", results)
	}
}

// TestBatchRequestExpand covers the job-submission shape: cross-product
// expansion order, defaults, flag propagation to both forms, and the
// both-forms conflict.
func TestBatchRequestExpand(t *testing.T) {
	seeds := []uint64{1, 2}
	years := []int{2023, 2024}
	reqs, err := (BatchRequest{
		Systems: []string{"Marconi", "Fugaku"}, Seeds: seeds, Years: years, Scenarios: true,
	}).Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 8 {
		t.Fatalf("expanded to %d, want 8", len(reqs))
	}
	// System-outer, seeds, then years: index 5 = Fugaku, seed 1, 2024.
	r := reqs[5]
	if r.System != "Fugaku" || *r.Seed != 1 || *r.Year != 2024 || !r.Scenarios {
		t.Fatalf("request 5 = %+v", r)
	}

	// An empty template sweeps all bundled systems with defaults.
	reqs, err = (BatchRequest{}).Expand()
	if err != nil || len(reqs) != len(SystemNames()) {
		t.Fatalf("default expansion = %d requests, err %v", len(reqs), err)
	}
	if reqs[0].Seed != nil || reqs[0].Year != nil {
		t.Fatal("default expansion should keep configuration defaults")
	}

	// Top-level flags reach explicit request lists too, without
	// clearing per-request flags.
	reqs, err = (BatchRequest{
		Requests:   []AssessRequest{{System: "Marconi"}, {System: "Fugaku", Scenarios: true}},
		Withdrawal: true,
	}).Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !reqs[0].Withdrawal || !reqs[1].Withdrawal || reqs[0].Scenarios || !reqs[1].Scenarios {
		t.Fatalf("flag propagation wrong: %+v", reqs)
	}

	// Setting both forms is a client error.
	if _, err := (BatchRequest{
		Requests: []AssessRequest{{System: "Marconi"}}, Systems: []string{"Fugaku"},
	}).Expand(); err == nil {
		t.Fatal("both-forms batch accepted")
	}

	// Units sizes the expansion without allocating it — including
	// cross-products far too large to ever materialize.
	if n := (BatchRequest{Systems: []string{"a", "b"}, Seeds: seeds, Years: years}).Units(); n != 8 {
		t.Fatalf("Units = %d, want 8", n)
	}
	huge := BatchRequest{
		Systems: make([]string, 100000),
		Seeds:   make([]uint64, 100000),
		Years:   make([]int, 100000),
	}
	if n := huge.Units(); n != 1e15 {
		t.Fatalf("huge Units = %d, want 1e15", n)
	}
}

// benchSweep is the shuffled multi-site sweep the planner benches run: 4
// systems x 3 years in worst-case interleave, 12 assessments over 4
// distinct substrates.
func benchSweep() []AssessRequest {
	seed := uint64(7)
	return interleavedSweep(sweepSystems, []uint64{seed}, []int{2030, 2031, 2032})
}

// BenchmarkSweepPlanned: the shuffled sweep through the substrate-aware
// planner, gated in BENCH.json. The engine result cache is
// disabled (every request re-derives from the substrate) and the
// substrate layer is squeezed to two entries per cache so execution
// order is what decides how often years regenerate.
func BenchmarkSweepPlanned(b *testing.B) {
	b.ReportAllocs()
	defer substrate.SetCapacity(substrate.DefaultCapacity)
	substrate.SetCapacity(2)
	eng := NewEngine(WithCache(0), WithWorkers(4))
	reqs := benchSweep()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.AssessMany(ctx, reqs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	misses := eng.CacheStats().Substrate.PlannedMisses
	b.ReportMetric(float64(misses)/float64(b.N), "generations/op")
}

// BenchmarkPlanBuild prices the planning step itself on a 1024-request
// batch, to show scheduling is noise next to one saved generation.
func BenchmarkPlanBuild(b *testing.B) {
	b.ReportAllocs()
	items := make([]plan.Item, 1024)
	for i := range items {
		h := fingerprint.New()
		h.Int(i % 96) // ~96 distinct substrates
		items[i] = plan.Item{Index: i, Substrate: h.Sum()}
		for c := range items[i].Cluster {
			h.Reset()
			h.Int(c)
			h.Int(i % (24 >> c)) // coarser sharing at higher priorities
			items[i].Cluster[c] = h.Sum()
		}
		h.Release()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := plan.Build(items, 8)
		if p.Items() != len(items) {
			b.Fatal("plan dropped items")
		}
	}
}
