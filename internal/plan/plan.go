// Package plan schedules sweep batches for substrate reuse. The
// substrate layer (internal/substrate) makes the generator years behind
// an assessment — site weather, grid signals, demand utilization — free
// to share between configurations with the same (identity, seed), but a
// batch that arrives in arbitrary order interleaves unrelated
// substrates: under a bounded LRU the working set churns, and the same
// year can be generated many times within one sweep.
//
// The planner removes that interleaving. It groups the batch by combined
// substrate fingerprint, clusters groups that share expensive components
// (same grid year, then same WUE/wet-bulb year, then same utilization
// year) next to each other, and partitions the group sequence into
// contiguous per-worker spans. Two invariants follow:
//
//   - Requests sharing a substrate run consecutively, and a substrate
//     is split across workers only when it is wider than one worker's
//     balanced share (its chunks then run on neighboring workers
//     concurrently, collapsed by the cache's singleflight), so at most
//     ~`workers` distinct substrates are live at any moment regardless
//     of batch size or arrival order.
//   - With a substrate cache that holds at least one year per worker,
//     planned execution generates each distinct year exactly once per
//     sweep (the property internal/plan's tests and the engine's
//     planner benchmarks assert).
//
// The package is deliberately ignorant of what an item is: callers
// (Engine.AssessMany, the daemon's job queue) supply batch indices and
// fingerprints, and get back an execution schedule over those indices.
package plan

import (
	"sort"

	"thirstyflops/internal/fingerprint"
)

// Item is one plannable unit of work: its position in the caller's batch
// plus the substrate identity its execution will touch (typically
// core.Config.SubstrateKeys -> Combined/Cluster).
type Item struct {
	// Index is the caller's batch position; Build's output spans are
	// sequences of these indices.
	Index int
	// Substrate is the combined substrate identity: items with equal
	// keys touch exactly the same memoized years.
	Substrate fingerprint.Key
	// Cluster holds the component keys in clustering priority order
	// (most expensive to regenerate first). Groups are sorted by it, so
	// groups sharing a prefix — same grid year, different site — end up
	// adjacent and still reuse the shared component.
	Cluster [4]fingerprint.Key
}

// Group is one run of items sharing a substrate, scheduled as a unit.
type Group struct {
	Substrate fingerprint.Key
	Cluster   [4]fingerprint.Key
	// Indexes lists the batch positions in arrival order.
	Indexes []int
}

// Plan is an execution schedule: per-worker ordered spans of batch
// indices. Every input index appears in exactly one span, and span
// items sharing a substrate are consecutive. A group is split across
// spans only when it is larger than the balanced span size — one giant
// group must not serialize the whole batch on a single worker — and its
// chunks land on neighboring workers, where the substrate cache's
// singleflight collapses their concurrent generation.
type Plan struct {
	// Spans holds one ordered index sequence per worker. Workers execute
	// their span front to back; spans are balanced by item count.
	Spans [][]int
	// Groups records the scheduled group sequence (concatenating the
	// groups yields the concatenated spans). A substrate wider than the
	// balanced span size appears as several adjacent chunks, so
	// len(Groups) can exceed the distinct substrate count.
	Groups []Group
}

// compareCluster orders two component-key vectors lexicographically.
func compareCluster(a, b [4]fingerprint.Key) int {
	for i := range a {
		if c := a[i].Compare(b[i]); c != 0 {
			return c
		}
	}
	return 0
}

// Build computes the schedule for a batch across the given worker count.
// Grouping is stable: within a group, items keep their arrival order.
// Groups are sorted by Cluster (then by first arrival, for determinism
// when two distinct substrates tie on every component — impossible short
// of a fingerprint collision, but cheap to pin down) and partitioned
// into at most `workers` contiguous spans with balanced item counts.
func Build(items []Item, workers int) Plan {
	if workers < 1 {
		workers = 1
	}
	byKey := make(map[fingerprint.Key]*Group, len(items))
	groups := make([]*Group, 0, len(items))
	first := make(map[fingerprint.Key]int, len(items))
	for _, it := range items {
		g, ok := byKey[it.Substrate]
		if !ok {
			g = &Group{Substrate: it.Substrate, Cluster: it.Cluster}
			byKey[it.Substrate] = g
			groups = append(groups, g)
			first[it.Substrate] = it.Index
		}
		g.Indexes = append(g.Indexes, it.Index)
	}
	sort.SliceStable(groups, func(i, j int) bool {
		if c := compareCluster(groups[i].Cluster, groups[j].Cluster); c != 0 {
			return c < 0
		}
		return first[groups[i].Substrate] < first[groups[j].Substrate]
	})

	// Chunk groups wider than the balanced span size so a batch
	// dominated by one substrate still fans out: the chunks stay
	// adjacent (same sort position), so they run on neighboring workers
	// at the same time and cost at most one extra generation per extra
	// span even without singleflight.
	if balanced := (len(items) + workers - 1) / workers; workers > 1 {
		chunked := make([]*Group, 0, len(groups))
		for _, g := range groups {
			for len(g.Indexes) > balanced {
				chunked = append(chunked, &Group{
					Substrate: g.Substrate, Cluster: g.Cluster, Indexes: g.Indexes[:balanced],
				})
				g = &Group{Substrate: g.Substrate, Cluster: g.Cluster, Indexes: g.Indexes[balanced:]}
			}
			chunked = append(chunked, g)
		}
		groups = chunked
	}

	p := Plan{Groups: make([]Group, len(groups))}
	for i, g := range groups {
		p.Groups[i] = *g
	}

	// Contiguous balanced partition: walk the sorted groups filling each
	// span while it holds fewer than ceil(remaining/spansLeft) items, so
	// every span reaches its target (overshooting by less than one group
	// chunk) before the next span starts. Spans never undershoot, so
	// targets are non-increasing from ceil(n/workers) and every span is
	// bounded by ceil(n/workers) + maxChunk - 1 — the balance property
	// plan_test pins. (The previous first-fit rule — skip a group that
	// would overflow the target — let spans undershoot, and cascading
	// undershoot piled the skipped groups onto the final worker, up to
	// ~1.5x past that bound on adversarial group-size mixes.)
	remaining := len(items)
	gi := 0
	for b := 0; b < workers && gi < len(groups); b++ {
		spansLeft := workers - b
		target := (remaining + spansLeft - 1) / spansLeft
		var span []int
		count := 0
		for gi < len(groups) && count < target {
			g := groups[gi]
			span = append(span, g.Indexes...)
			count += len(g.Indexes)
			gi++
		}
		remaining -= count
		p.Spans = append(p.Spans, span)
	}
	return p
}
