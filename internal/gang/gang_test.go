package gang

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thirstyflops/internal/fingerprint"
	"thirstyflops/internal/plan"
)

// keyOf derives a distinct fingerprint from small labels.
func keyOf(parts ...int) fingerprint.Key {
	h := fingerprint.New()
	defer h.Release()
	for _, p := range parts {
		h.Int(p)
	}
	return h.Sum()
}

// itemsFor builds a batch of n units drawing substrates from the given
// label pool, batch-local indices 0..n-1.
func itemsFor(n int, substrates ...int) []plan.Item {
	items := make([]plan.Item, n)
	for i := range items {
		s := substrates[i%len(substrates)]
		items[i] = plan.Item{
			Index:     i,
			Substrate: keyOf(s),
			Cluster:   [4]fingerprint.Key{keyOf(1, s), keyOf(2, s), keyOf(3, s), keyOf(4, s)},
		}
	}
	return items
}

// TestSubmitRunsEveryUnitOnce: the exactly-once demux contract, across
// several concurrently submitted batches sharing one round.
func TestSubmitRunsEveryUnitOnce(t *testing.T) {
	s := New(20*time.Millisecond, 4)
	const batches, units = 5, 17
	counts := make([][]atomic.Int32, batches)
	var wg sync.WaitGroup
	for bi := 0; bi < batches; bi++ {
		counts[bi] = make([]atomic.Int32, units)
		wg.Add(1)
		go func(bi int) {
			defer wg.Done()
			s.Submit(context.Background(), itemsFor(units, 1, 2, 3), func(i int, _ bool) {
				counts[bi][i].Add(1)
			})
		}(bi)
	}
	wg.Wait()
	for bi := range counts {
		for i := range counts[bi] {
			if got := counts[bi][i].Load(); got != 1 {
				t.Fatalf("batch %d unit %d ran %d times, want 1", bi, i, got)
			}
		}
	}
	st := s.Stats()
	if st.Batches != batches || st.Units != batches*units {
		t.Fatalf("stats = %+v", st)
	}
	if st.Rounds == 0 {
		t.Fatal("no rounds executed")
	}
}

// TestMergeWindowCoalesces: batches arriving within one window share a
// round, and their shared-substrate units are flagged cross-job.
func TestMergeWindowCoalesces(t *testing.T) {
	s := New(50*time.Millisecond, 2)
	var crossA, crossB atomic.Int32
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		s.Submit(context.Background(), itemsFor(6, 7, 8), func(_ int, cj bool) {
			if cj {
				crossA.Add(1)
			}
		})
	}()
	go func() {
		defer wg.Done()
		s.Submit(context.Background(), itemsFor(6, 7, 9), func(_ int, cj bool) {
			if cj {
				crossB.Add(1)
			}
		})
	}()
	wg.Wait()
	st := s.Stats()
	if st.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1 (both batches inside one %s window)", st.Rounds, s.window)
	}
	if st.MergedBatches != 2 || st.CoscheduledUnits != 12 {
		t.Fatalf("merge accounting = %+v", st)
	}
	// Substrate 7 appears in both batches: its 3 units per batch are
	// cross-job; substrates 8 and 9 are batch-private.
	if crossA.Load() != 3 || crossB.Load() != 3 || st.CrossJobUnits != 6 {
		t.Fatalf("cross-job flags = %d/%d, units = %d; want 3/3 and 6",
			crossA.Load(), crossB.Load(), st.CrossJobUnits)
	}
}

// TestDisjointWindowsDoNotMerge: a batch submitted after the previous
// round fired gets its own round and no merge accounting.
func TestDisjointWindowsDoNotMerge(t *testing.T) {
	s := New(time.Millisecond, 2)
	for i := 0; i < 3; i++ {
		s.Submit(context.Background(), itemsFor(4, 1), func(int, bool) {})
	}
	st := s.Stats()
	if st.Rounds != 3 || st.MergedBatches != 0 || st.CoscheduledUnits != 0 || st.CrossJobUnits != 0 {
		t.Fatalf("sequential batches merged: %+v", st)
	}
}

// TestCancellationIsolation: canceling one batch mid-round neither
// cancels nor drops units of a co-scheduled batch, and the canceled
// batch's Submit returns without waiting for the survivor's slow units.
func TestCancellationIsolation(t *testing.T) {
	s := New(10*time.Millisecond, 1) // one worker: the round is serial
	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()

	var ranB atomic.Int32
	var canceledA atomic.Int32
	started, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	aDone := make(chan struct{})
	go func() {
		defer wg.Done()
		defer close(aDone)
		s.Submit(ctxA, itemsFor(8, 1), func(i int, _ bool) {
			if ctxA.Err() != nil {
				canceledA.Add(1)
				return
			}
			// First unit stalls until released, holding the single
			// worker mid-group.
			if i == 0 {
				close(started)
				<-release
			}
		})
	}()
	go func() {
		defer wg.Done()
		s.Submit(context.Background(), itemsFor(8, 2), func(int, bool) {
			ranB.Add(1)
		})
	}()

	// Wait for the round to claim A's first unit, then cancel A while
	// that unit blocks the worker. A's submitter must drain its
	// remaining units itself and return even though the worker is stuck.
	<-started
	cancelA()
	select {
	case <-aDone:
		t.Fatal("batch A finished while its first unit still holds the worker")
	case <-time.After(10 * time.Millisecond):
	}
	close(release)
	wg.Wait()

	if ranB.Load() != 8 {
		t.Fatalf("batch B ran %d of 8 units after A's cancellation", ranB.Load())
	}
	if canceledA.Load() == 0 {
		t.Fatal("batch A saw no canceled units")
	}
	if st := s.Stats(); st.DrainedUnits == 0 {
		t.Fatalf("no units drained by the canceled submitter: %+v", st)
	}
}

// TestZeroWindowRunsEachBatchAsItsOwnRound: with no merge window,
// concurrent submitters never share a round, every unit still runs
// exactly once, and a pre-canceled batch still hands each unit to run.
func TestZeroWindowRunsEachBatchAsItsOwnRound(t *testing.T) {
	s := New(0, 2)
	const submitters, units = 6, 9
	counts := make([][]atomic.Int32, submitters)
	var wg sync.WaitGroup
	for g := range counts {
		counts[g] = make([]atomic.Int32, units)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s.Submit(context.Background(), itemsFor(units, 1, 2), func(i int, _ bool) {
				counts[g][i].Add(1)
			})
		}(g)
	}
	wg.Wait()
	for g := range counts {
		for i := range counts[g] {
			if got := counts[g][i].Load(); got != 1 {
				t.Fatalf("submitter %d unit %d ran %d times, want 1", g, i, got)
			}
		}
	}
	st := s.Stats()
	if st.Rounds != submitters || st.MergedBatches != 0 || st.CoscheduledUnits != 0 || st.CrossJobUnits != 0 {
		t.Fatalf("window 0 merged batches: %+v", st)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	s.Submit(ctx, itemsFor(units, 1), func(int, bool) { ran.Add(1) })
	if ran.Load() != units {
		t.Fatalf("pre-canceled batch ran %d of %d units", ran.Load(), units)
	}
}

// TestSubmitEmptyBatch returns immediately and counts nothing.
func TestSubmitEmptyBatch(t *testing.T) {
	s := New(time.Hour, 2) // a window that would hang a non-empty submit
	done := make(chan struct{})
	go func() {
		s.Submit(context.Background(), nil, func(int, bool) { t.Error("ran a unit of an empty batch") })
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("empty Submit blocked")
	}
	if st := s.Stats(); st.Batches != 0 || st.Units != 0 {
		t.Fatalf("empty submit counted: %+v", st)
	}
}

// TestConcurrencySoak hammers the scheduler under the race detector:
// random batch shapes, overlapping and disjoint substrates, staggered
// cancellations — every unit still runs exactly once, and the
// accounting identity units == worker-completed + drained closes.
func TestConcurrencySoak(t *testing.T) {
	s := New(500*time.Microsecond, 4)
	const submitters = 8
	var wg sync.WaitGroup
	var executed atomic.Uint64
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for iter := 0; iter < 20; iter++ {
				n := 1 + rng.Intn(24)
				subs := []int{rng.Intn(3), 100 + g} // one shared pool, one private
				items := itemsFor(n, subs...)
				ctx, cancel := context.WithCancel(context.Background())
				if rng.Intn(3) == 0 {
					// Staggered cancel racing the window and the round.
					time.AfterFunc(time.Duration(rng.Intn(1500))*time.Microsecond, cancel)
				}
				var count atomic.Int64
				s.Submit(ctx, items, func(int, bool) {
					count.Add(1)
					executed.Add(1)
				})
				cancel()
				if got := count.Load(); got != int64(n) {
					t.Errorf("submitter %d iter %d: %d of %d units ran", g, iter, got, n)
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if executed.Load() != st.Units {
		t.Fatalf("executed %d units, submitted %d", executed.Load(), st.Units)
	}
}

// TestStalledGroupDoesNotStrandOthers: workers claim groups one at a
// time, so a worker stuck on a slow group holds back only that group.
// The first group's first unit blocks until every unit of the five other
// groups has run, which a static per-worker partition never allows: the
// groups queued behind the stalled one on its worker would wait for it.
// The block is bounded, so a stranding schedule fails instead of
// hanging. Every group's units must also run one at a time, in arrival
// order.
func TestStalledGroupDoesNotStrandOthers(t *testing.T) {
	const groups, perGroup = 6, 3
	items := itemsFor(groups*perGroup, 0, 1, 2, 3, 4, 5) // unit i is in group i%groups
	stall := plan.Build(items, 2).Groups[0].Indexes[0]

	var inFlight, last [groups]atomic.Int32
	for g := range last {
		last[g].Store(-1)
	}
	var others atomic.Int32
	othersDone := make(chan struct{})
	stranded := int32(-1) // units of the other groups run when the bound expired
	New(0, 2).Submit(context.Background(), items, func(i int, _ bool) {
		g := i % groups
		if inFlight[g].Add(1) != 1 {
			t.Errorf("group %d runs two units at once", g)
		}
		defer inFlight[g].Add(-1)
		if prev := last[g].Swap(int32(i)); prev >= int32(i) {
			t.Errorf("group %d ran unit %d after unit %d", g, i, prev)
		}
		switch {
		case i == stall:
			select {
			case <-othersDone:
			case <-time.After(5 * time.Second):
				stranded = others.Load()
			}
		case g != stall%groups:
			if others.Add(1) == (groups-1)*perGroup {
				close(othersDone)
			}
		}
	})
	if stranded >= 0 {
		t.Fatalf("only %d of %d units of the other groups ran while one group stalled",
			stranded, (groups-1)*perGroup)
	}
}
