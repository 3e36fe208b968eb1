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
// year) next to each other, and chunks any group wider than one worker's
// balanced share. Who runs which group is the executor's business: the
// gang scheduler (internal/gang) hands groups to workers one at a time,
// so two invariants follow:
//
//   - Requests sharing a substrate run consecutively on one worker, and
//     a substrate is split across workers only when it is wider than
//     ceil(n/workers) (its chunks stay adjacent, so they run
//     concurrently and the cache's singleflight collapses their
//     generation), so at most `workers` distinct substrates are live at
//     any moment regardless of batch size or arrival order.
//   - With a substrate cache that holds at least one year per worker,
//     planned execution generates each distinct year exactly once per
//     sweep (the property the engine's planner tests and benchmarks
//     assert).
//
// The package is deliberately ignorant of what an item is: its caller
// (internal/gang, for every Engine batch path) supplies batch indices
// and fingerprints, and gets back the ordered groups over those indices.
package plan

import (
	"slices"

	"thirstyflops/internal/fingerprint"
)

// Item is one plannable unit of work: its position in the caller's batch
// plus the substrate identity its execution will touch (typically
// core.Config.SubstrateKeys -> Combined/Cluster).
type Item struct {
	// Index is the caller's batch position; Build's output groups are
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

// Plan is an execution schedule: the ordered group sequence. Every
// input index appears in exactly one group. A substrate wider than
// ceil(n/workers) appears as several adjacent chunks — one giant group
// must not serialize the whole batch on a single worker — so len(Groups)
// can exceed the distinct substrate count.
type Plan struct {
	Groups []Group
}

// Build computes the schedule for a batch across the given worker count.
// Grouping is stable: within a group, items keep their arrival order.
// Groups are sorted by Cluster. The sort is stable, so groups that tie
// keep their first-arrival order; distinct groups never tie when
// Substrate is derived from Cluster, as substrate.Keys.Combined is.
func Build(items []Item, workers int) Plan {
	if workers < 1 {
		workers = 1
	}
	byKey := make(map[fingerprint.Key]int, len(items))
	var groups []Group
	for _, it := range items {
		gi, ok := byKey[it.Substrate]
		if !ok {
			gi = len(groups)
			byKey[it.Substrate] = gi
			groups = append(groups, Group{Substrate: it.Substrate, Cluster: it.Cluster})
		}
		groups[gi].Indexes = append(groups[gi].Indexes, it.Index)
	}
	slices.SortStableFunc(groups, func(a, b Group) int {
		return slices.CompareFunc(a.Cluster[:], b.Cluster[:], fingerprint.Key.Compare)
	})

	// Chunk groups wider than the balanced share so a batch dominated by
	// one substrate still fans out: the chunks stay adjacent, so workers
	// claim them at the same time and cost at most one extra generation
	// per extra chunk even without singleflight.
	balanced := (len(items) + workers - 1) / workers
	var p Plan
	for _, g := range groups {
		for len(g.Indexes) > balanced {
			p.Groups = append(p.Groups, Group{Substrate: g.Substrate, Cluster: g.Cluster, Indexes: g.Indexes[:balanced]})
			g.Indexes = g.Indexes[balanced:]
		}
		p.Groups = append(p.Groups, g)
	}
	return p
}
