// Package gang merges concurrently arriving assessment batches into one
// fleet-wide substrate-affine schedule. The sweep planner (internal/plan)
// already orders one batch so requests sharing a substrate run
// consecutively — but two batches sweeping the same sites concurrently
// still plan independently, and each generates every shared year once
// per batch. The gang scheduler closes that gap: batches submitted
// within a short merge window coalesce into one round, the round is
// planned as a single merged batch (plan.Build over the union, grouped
// by substrate identity regardless of which batch a unit came from), and
// completions demultiplex back to each batch as its units finish.
//
// Invariants the scheduler maintains (pinned by gang_test.go and the
// engine-level soak):
//
//   - Exactly-once execution: every submitted unit's run callback is
//     invoked exactly once — by a round worker, or by its own batch's
//     submitter after cancellation — never both.
//   - Cancellation isolation: canceling one batch never cancels, delays
//     indefinitely, or re-orders another batch's units. A canceled
//     batch's submitter claims and fails its own unstarted units
//     immediately instead of waiting for round workers to walk past
//     them; units another worker already claimed finish there.
//   - Demux correctness: a unit's completion is reported to the batch
//     that submitted it, under the index that batch assigned.
//
// The scheduler is deliberately ignorant of what a unit does: callers
// (Engine.AssessBatch and Engine.Water500, the Engine's only batch
// paths) hand it plan.Items plus a run callback, exactly the contract
// internal/plan has with its callers, extended across batch boundaries.
package gang

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"thirstyflops/internal/fingerprint"
	"thirstyflops/internal/plan"
)

// Run executes one unit of a batch: index is the batch-local position
// the caller assigned in its plan.Item, crossJob reports whether the
// unit's substrate group in the merged round held units from more than
// one batch (the fleet-wide sharing signal behind the engine's
// cross-job substrate split). Run must be safe for concurrent use and
// must honor its batch's context itself — the scheduler guarantees the
// call, not its outcome.
type Run func(index int, crossJob bool)

// Stats snapshots the scheduler's counters, JSON-shaped for the
// daemon's /healthz gang block. The accounting identity
// Units == claims completed by workers + claims drained by canceled
// submitters holds at quiescence; MergedBatches counts only batches
// that shared their round with another batch, so a fleet of
// non-overlapping-in-time submissions reports zero merges.
type Stats struct {
	// Window is the configured merge window in nanoseconds.
	WindowNs int64 `json:"window_ns"`
	// Rounds is how many merged schedules have been built and executed.
	Rounds uint64 `json:"rounds"`
	// Batches counts every submission; Units every submitted unit.
	Batches uint64 `json:"batches"`
	Units   uint64 `json:"units"`
	// MergedBatches counts batches that entered a round alongside at
	// least one other batch; CoscheduledUnits counts the units of those
	// multi-batch rounds.
	MergedBatches    uint64 `json:"merged_batches"`
	CoscheduledUnits uint64 `json:"coscheduled_units"`
	// CrossJobUnits counts units whose substrate group spanned more than
	// one batch — each one past the group's first batch is an assessment
	// that would have regenerated its substrate year under per-batch
	// planning.
	CrossJobUnits uint64 `json:"cross_job_units"`
	// DrainedUnits counts units claimed by their own canceled batch's
	// submitter instead of a round worker.
	DrainedUnits uint64 `json:"drained_units"`
}

// Scheduler owns the merge window and the round pipeline. The zero
// value is not usable; construct with New. All methods are safe for
// concurrent use.
type Scheduler struct {
	window  time.Duration
	workers int

	mu      sync.Mutex
	pending []item // units of the currently open round
	open    bool   // a window timer is armed for the pending round

	rounds           atomic.Uint64
	batches          atomic.Uint64
	units            atomic.Uint64
	mergedBatches    atomic.Uint64
	coscheduledUnits atomic.Uint64
	crossJobUnits    atomic.Uint64
	drainedUnits     atomic.Uint64
}

// item is one unit's position in a round: its batch plus the offset of
// its plan.Item inside that batch's submission.
type item struct {
	b   *batch
	pos int
}

// batch is one Submit call in flight. claimed flags guarantee
// exactly-once execution when round workers race the canceled
// submitter's drain; left counts down to the done close.
type batch struct {
	run     Run
	items   []plan.Item
	claimed []atomic.Bool
	left    atomic.Int64
	done    chan struct{}
}

// exec claims and runs one unit, closing done on the last completion.
// Safe to call from any goroutine any number of times: only the first
// claim executes.
func (b *batch) exec(pos int, crossJob bool) bool {
	if !b.claimed[pos].CompareAndSwap(false, true) {
		return false
	}
	b.run(b.items[pos].Index, crossJob)
	if b.left.Add(-1) == 0 {
		close(b.done)
	}
	return true
}

// New builds a scheduler merging batches that arrive within window of a
// round opening, running each round on up to workers goroutines.
// A non-positive window merges nothing: each batch runs as its own round
// on the submitting goroutine, with no timer and no pending list — plain
// per-batch planning.
func New(window time.Duration, workers int) *Scheduler {
	if workers < 1 {
		workers = 1
	}
	return &Scheduler{window: window, workers: workers}
}

// Submit enqueues one batch's units into the merge window and blocks
// until every unit has been executed. items carry batch-local indices
// (plan.Item.Index) and substrate identities; run is invoked exactly
// once per item, from a round worker goroutine — or, after ctx is
// canceled, from this goroutine for units no worker had claimed yet, so
// a canceled batch unblocks at the pace of its own in-flight units, not
// the whole round's. With a non-positive window the batch is its own
// round, executed before Submit returns. Submit never fails:
// cancellation semantics live in run (the engine's run callback reports
// ctx errors per unit).
func (s *Scheduler) Submit(ctx context.Context, items []plan.Item, run Run) {
	if len(items) == 0 {
		return
	}
	b := &batch{
		run:     run,
		items:   items,
		claimed: make([]atomic.Bool, len(items)),
		done:    make(chan struct{}),
	}
	b.left.Store(int64(len(items)))

	s.batches.Add(1)
	s.units.Add(uint64(len(items)))
	if s.window <= 0 {
		round := make([]item, len(items))
		for pos := range items {
			round[pos] = item{b, pos}
		}
		s.execute(round)
		return
	}
	s.mu.Lock()
	for pos := range items {
		s.pending = append(s.pending, item{b, pos})
	}
	if !s.open {
		// First batch of a round arms the window; later batches join
		// the same round, so no batch waits longer than one window.
		s.open = true
		time.AfterFunc(s.window, s.fire)
	}
	s.mu.Unlock()

	select {
	case <-b.done:
	case <-ctx.Done():
		// Fail fast: claim this batch's unstarted units now instead of
		// waiting for round workers to walk past them. Each exec runs
		// the callback with the canceled context — the caller reports
		// the per-unit error — and units a worker already claimed
		// finish on that worker. Other batches in the round are
		// untouched.
		for pos := range items {
			if b.exec(pos, false) {
				s.drainedUnits.Add(1)
			}
		}
		<-b.done
	}
}

// fire closes the pending round and executes it. Runs on the window
// timer's goroutine; a new round can open (and even fire) while this
// one executes, so a long round never blocks admission.
func (s *Scheduler) fire() {
	s.mu.Lock()
	round := s.pending
	s.pending = nil
	s.open = false
	s.mu.Unlock()
	s.execute(round)
}

// execute plans one round across every waiting batch and runs it.
func (s *Scheduler) execute(round []item) {
	if len(round) == 0 {
		return
	}
	// One merged plan over the union: plan.Item indices address the
	// round slice, so grouping and clustering see units from different
	// batches as interchangeable members of their substrate group.
	merged := make([]plan.Item, len(round))
	firstBatch := make(map[fingerprint.Key]*batch, len(round))
	crossJob := make(map[fingerprint.Key]bool)
	batches := make(map[*batch]struct{}, 4)
	for i, it := range round {
		u := it.b.items[it.pos]
		merged[i] = plan.Item{Index: i, Substrate: u.Substrate, Cluster: u.Cluster}
		batches[it.b] = struct{}{}
		if owner, ok := firstBatch[u.Substrate]; !ok {
			firstBatch[u.Substrate] = it.b
		} else if owner != it.b {
			crossJob[u.Substrate] = true
		}
	}

	s.rounds.Add(1)
	if len(batches) > 1 {
		s.mergedBatches.Add(uint64(len(batches)))
		s.coscheduledUnits.Add(uint64(len(round)))
	}
	for _, it := range round {
		if crossJob[it.b.items[it.pos].Substrate] {
			s.crossJobUnits.Add(1)
		}
	}

	// Workers claim groups from one cursor: a worker stuck on a slow
	// group holds back only that group, and each group still runs on
	// one worker, front to back.
	p := plan.Build(merged, min(s.workers, len(round)))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(s.workers, len(p.Groups)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for g := next.Add(1) - 1; g < int64(len(p.Groups)); g = next.Add(1) - 1 {
				cj := crossJob[p.Groups[g].Substrate]
				for _, mi := range p.Groups[g].Indexes {
					round[mi].b.exec(round[mi].pos, cj)
				}
			}
		}()
	}
	wg.Wait()
}

// Stats snapshots the counters.
func (s *Scheduler) Stats() Stats {
	return Stats{
		WindowNs:         s.window.Nanoseconds(),
		Rounds:           s.rounds.Load(),
		Batches:          s.batches.Load(),
		Units:            s.units.Load(),
		MergedBatches:    s.mergedBatches.Load(),
		CoscheduledUnits: s.coscheduledUnits.Load(),
		CrossJobUnits:    s.crossJobUnits.Load(),
		DrainedUnits:     s.drainedUnits.Load(),
	}
}
