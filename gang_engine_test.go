package thirstyflops

// Gang-scheduler integration tests: concurrent AssessBatch calls merged
// through the engine's fleet-wide scheduler must generate each shared
// substrate year once fleet-wide (not once per batch), return results
// bit-identical to serial per-batch execution, and keep one batch's
// cancellation from bleeding into another. BenchmarkConcurrentBatches*
// record the wall-clock side in BENCH_PR10.json, gated by `make
// bench-gang`.

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"thirstyflops/internal/substrate"
)

// gangWindowForTest is generous enough that every concurrently launched
// batch lands inside the first round's merge window even on a loaded CI
// machine.
const gangWindowForTest = 250 * time.Millisecond

// TestGangFleetWideOptimum extends the planner's never-regenerates
// property across batches: N concurrent batches sweeping the same
// systems generate each distinct substrate year exactly once fleet-wide
// — the same count one batch alone needs — and the sharing shows up in
// the cross-job substrate split.
func TestGangFleetWideOptimum(t *testing.T) {
	restoreSubstrate(t)
	seeds := []uint64{1, 2}
	years := []int{2030, 2031, 2032}
	reqs := interleavedSweep(sweepSystems, seeds, years)

	// Same formula as the single-batch planner test: grid/WUE/wet-bulb
	// are (site, seed)-keyed, utilization seeds-keyed.
	groups := len(sweepSystems) * len(seeds)
	wantGenerations := uint64(3*groups + len(seeds))

	const batches = 4
	eng := NewEngine(WithCache(0), WithWorkers(1), WithGangWindow(gangWindowForTest))
	results := make([][]*AssessResult, batches)
	got := generationsDuring(t, 2, func() {
		var wg sync.WaitGroup
		for b := 0; b < batches; b++ {
			wg.Add(1)
			go func(b int) {
				defer wg.Done()
				res, err := eng.AssessMany(context.Background(), reqs)
				if err != nil {
					t.Errorf("batch %d: %v", b, err)
				}
				results[b] = res
			}(b)
		}
		wg.Wait()
	})
	if got != wantGenerations {
		t.Fatalf("%d concurrent batches generated %d years, want exactly %d (fleet-wide optimum, not %d per-batch)",
			batches, got, wantGenerations, batches*int(wantGenerations))
	}

	// Bit-identical to serial per-batch execution (gang window 0).
	serialEng := NewEngine(WithCache(0), WithWorkers(1))
	want, err := serialEng.AssessMany(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for b := range results {
		if !reflect.DeepEqual(results[b], want) {
			t.Fatalf("batch %d results differ from serial per-batch execution", b)
		}
	}

	// The sharing is attributed: cross-job units made substrate lookups,
	// some of them hits on years another batch generated, and the
	// cross-job pair is a subset of the planned pair.
	stats := eng.CacheStats().Substrate
	if stats.CrossJobHits == 0 {
		t.Errorf("no cross-job substrate hits recorded: %+v", stats)
	}
	if stats.PlannedMisses != wantGenerations {
		t.Errorf("planned misses = %d, want %d", stats.PlannedMisses, wantGenerations)
	}
	if stats.CrossJobHits > stats.PlannedHits || stats.CrossJobMisses > stats.PlannedMisses {
		t.Errorf("cross-job pair exceeds planned pair: %+v", stats)
	}
	gs := eng.CacheStats().Gang
	if gs == nil {
		t.Fatal("CacheStats.Gang is nil with a gang window set")
	}
	if gs.MergedBatches != batches || gs.CrossJobUnits == 0 {
		t.Errorf("gang stats = %+v; want %d merged batches and cross-job units", gs, batches)
	}
}

// TestGangWindowZeroRestoresPerBatch: window 0 (the default) still
// schedules every batch, but each concurrent batch runs as its own
// round — no merges, no cross-job units — and answers correctly.
func TestGangWindowZeroRestoresPerBatch(t *testing.T) {
	for _, eng := range []*Engine{NewEngine(), NewEngine(WithGangWindow(0))} {
		const batches = 3
		reqs := interleavedSweep(sweepSystems[:2], []uint64{1}, []int{2030})
		var wg sync.WaitGroup
		for b := 0; b < batches; b++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := eng.AssessMany(context.Background(), reqs)
				if err != nil {
					t.Error(err)
					return
				}
				if len(res) != 2 || res[0] == nil || res[1] == nil {
					t.Errorf("per-batch round lost results: %v", res)
				}
			}()
		}
		wg.Wait()
		gs := eng.CacheStats().Gang
		if gs == nil {
			t.Fatal("CacheStats.Gang is nil")
		}
		if gs.WindowNs != 0 || gs.Rounds != batches || gs.Batches != batches ||
			gs.MergedBatches != 0 || gs.CoscheduledUnits != 0 || gs.CrossJobUnits != 0 {
			t.Fatalf("window 0 gang stats = %+v; want %d unmerged rounds", gs, batches)
		}
	}
}

// TestGangSoakNoCancellationBleed is the race-enabled scheduler soak:
// overlapping and disjoint batches stream through the merge window with
// staggered cancellations; surviving batches must return results
// bit-identical to serial per-batch execution with no context errors,
// and canceled batches must fail only themselves.
func TestGangSoakNoCancellationBleed(t *testing.T) {
	restoreSubstrate(t)
	eng := NewEngine(WithCache(0), WithWorkers(4), WithGangWindow(2*time.Millisecond))
	serialEng := NewEngine(WithCache(0), WithWorkers(1))

	// Per-shape serial baselines, computed once.
	shapes := [][]AssessRequest{
		interleavedSweep(sweepSystems, []uint64{1}, []int{2030, 2031}),          // overlapping pool
		interleavedSweep(sweepSystems[:2], []uint64{2}, []int{2032}),            // overlapping pool
		interleavedSweep([]string{"Fugaku"}, []uint64{7}, []int{2040, 2041}),    // disjoint
		interleavedSweep([]string{"Polaris"}, []uint64{9}, []int{2050, 2051}),   // disjoint
		interleavedSweep(sweepSystems, []uint64{1, 2}, []int{2030, 2031, 2032}), // wide overlap
	}
	baselines := make([][]*AssessResult, len(shapes))
	for i, reqs := range shapes {
		want, err := serialEng.AssessMany(context.Background(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		baselines[i] = want
	}

	const submitters = 6
	const iters = 8
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for iter := 0; iter < iters; iter++ {
				shape := rng.Intn(len(shapes))
				reqs := shapes[shape]
				ctx, cancel := context.WithCancel(context.Background())
				willCancel := rng.Intn(3) == 0
				if willCancel {
					time.AfterFunc(time.Duration(rng.Intn(4))*time.Millisecond, cancel)
				}
				res, err := eng.AssessMany(ctx, reqs)
				cancel()
				if willCancel {
					// Canceled or completed-before-the-cancel are both
					// fine; a foreign error is not.
					if err != nil && !errors.Is(err, context.Canceled) {
						t.Errorf("submitter %d iter %d: canceled batch failed with a non-cancel error: %v", g, iter, err)
					}
					continue
				}
				if err != nil {
					t.Errorf("submitter %d iter %d: un-canceled batch failed: %v (cancellation bleed?)", g, iter, err)
					continue
				}
				if !reflect.DeepEqual(res, baselines[shape]) {
					t.Errorf("submitter %d iter %d: results differ from serial per-batch execution", g, iter)
				}
			}
		}(g)
	}
	wg.Wait()

	// Accounting stayed coherent across the soak.
	gs := eng.CacheStats().Gang
	if gs.Units == 0 || gs.Rounds == 0 {
		t.Fatalf("soak ran no gang rounds: %+v", gs)
	}
}

// TestAssessBatchCancelCollapsesErrors pins the cancellation-error
// collapse: a 10k-unit batch canceled before execution reports one
// counted summary, not ten thousand joined "context canceled" lines —
// while still matching errors.Is(err, context.Canceled) and keeping the
// nil-result-implies-reported-error pairing.
func TestAssessBatchCancelCollapsesErrors(t *testing.T) {
	const units = 10_000
	reqs := make([]AssessRequest, units)
	for i := range reqs {
		year := 2030 + i // distinct configs: nothing to memo-share
		reqs[i] = AssessRequest{System: "Frontier", Year: &year}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, tc := range []struct {
		name string
		eng  *Engine
	}{
		{"planner", NewEngine()},
		{"gang", NewEngine(WithGangWindow(time.Millisecond))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			results, err := tc.eng.AssessBatch(ctx, reqs, nil)
			if err == nil {
				t.Fatal("canceled batch returned nil error")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("errors.Is(err, context.Canceled) = false: %v", err)
			}
			msg := err.Error()
			if len(msg) > 500 {
				t.Fatalf("error string is %d bytes for a %d-unit canceled batch (O(batch) join not collapsed): %.200s...",
					len(msg), units, msg)
			}
			if !strings.Contains(msg, "units canceled before completion") {
				t.Fatalf("no counted cancellation summary in: %s", msg)
			}
			for i, r := range results {
				if r != nil {
					t.Fatalf("unit %d has a result from a pre-canceled context", i)
				}
			}
		})
	}
}

// TestJoinUnitErrorsKeepsRealFailures: the collapse is scoped to context
// errors — genuine per-unit failures stay individually reported, and a
// single cancellation is passed through unsummarized.
func TestJoinUnitErrorsKeepsRealFailures(t *testing.T) {
	boom := errors.New("boom")
	err := joinUnitErrors([]error{nil, boom, context.Canceled, nil, context.Canceled, errors.New("bang")})
	if err == nil {
		t.Fatal("nil join")
	}
	msg := err.Error()
	for _, want := range []string{"boom", "bang", "2 units canceled before completion"} {
		if !strings.Contains(msg, want) {
			t.Errorf("joined error %q is missing %q", msg, want)
		}
	}
	if !errors.Is(err, context.Canceled) || !errors.Is(err, boom) {
		t.Error("joined error lost errors.Is identity")
	}

	if err := joinUnitErrors([]error{nil, nil}); err != nil {
		t.Errorf("error-free batch joined to %v", err)
	}
	one := joinUnitErrors([]error{context.Canceled})
	if one == nil || strings.Contains(one.Error(), "units canceled") {
		t.Errorf("single cancellation should pass through unsummarized, got %v", one)
	}
}

// benchConcurrentBatches runs N concurrent copies of the shuffled
// BENCH_PR4 sweep through one engine and reports substrate generations
// per op (one op = all N batches). With a merge window the batches
// coalesce into one fleet-wide schedule and each shared year generates
// once; with window 0 each batch plans alone and the concurrent sweeps
// churn the squeezed substrate cache against each other.
func benchConcurrentBatches(b *testing.B, window time.Duration) {
	b.ReportAllocs()
	defer substrate.SetCapacity(substrate.DefaultCapacity)
	substrate.SetCapacity(2)
	eng := NewEngine(WithCache(0), WithWorkers(4), WithGangWindow(window))
	reqs := benchSweep()
	ctx := context.Background()
	const batches = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for j := 0; j < batches; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := eng.AssessMany(ctx, reqs); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	stats := eng.CacheStats().Substrate
	misses := stats.PlannedMisses + stats.UnplannedMisses
	b.ReportMetric(float64(misses)/float64(b.N), "generations/op")
}

// BenchmarkConcurrentBatchesGang: four overlapping batches merged by the
// fleet-wide gang scheduler. Gated against BENCH_PR10.json.
func BenchmarkConcurrentBatchesGang(b *testing.B) {
	benchConcurrentBatches(b, time.Millisecond)
}

// BenchmarkConcurrentBatchesPerBatch: the same four batches planned
// per-batch (gang window 0) — the baseline the BENCH_PR10 record keeps
// for comparison.
func BenchmarkConcurrentBatchesPerBatch(b *testing.B) {
	benchConcurrentBatches(b, 0)
}
