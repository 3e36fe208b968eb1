package plan

import (
	"math/rand"
	"reflect"
	"testing"

	"thirstyflops/internal/fingerprint"
)

// keyOf derives a distinct fingerprint from a small label.
func keyOf(parts ...int) fingerprint.Key {
	h := fingerprint.New()
	defer h.Release()
	for _, p := range parts {
		h.Int(p)
	}
	return h.Sum()
}

// itemOf builds an Item whose substrate is (grid, site, util) and whose
// cluster mirrors the substrate package's priority (grid, wue, wetbulb,
// util) — wue/wetbulb derive from the site label.
func itemOf(index, grid, site, util int) Item {
	return Item{
		Index:     index,
		Substrate: keyOf(grid, site, util),
		Cluster: [4]fingerprint.Key{
			keyOf(1, grid), keyOf(2, site), keyOf(3, site), keyOf(4, util),
		},
	}
}

// randomBatch synthesizes a batch drawing substrates from a small pool so
// sharing is common.
func randomBatch(rng *rand.Rand, n int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = itemOf(i, rng.Intn(3), rng.Intn(4), rng.Intn(2))
	}
	return items
}

// TestBuildProperties asserts the planner invariants over many random
// batches and worker counts: every index scheduled exactly once, no
// group split across spans, shared substrates consecutive in execution
// order, and at most `workers` spans.
func TestBuildProperties(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		workers := 1 + rng.Intn(8)
		items := randomBatch(rng, n)
		p := Build(items, workers)

		if len(p.Spans) > workers {
			t.Fatalf("seed %d: %d spans exceed %d workers", seed, len(p.Spans), workers)
		}

		seen := make(map[int]bool, n)
		for _, span := range p.Spans {
			for _, idx := range span {
				if seen[idx] {
					t.Fatalf("seed %d: index %d scheduled twice", seed, idx)
				}
				seen[idx] = true
			}
		}
		if len(seen) != n {
			t.Fatalf("seed %d: scheduled %d of %d indices", seed, len(seen), n)
		}

		// A substrate spans two workers only when it is wider than the
		// balanced span size, and its items are consecutive within each
		// span that holds it.
		subOf := make(map[int]fingerprint.Key, n)
		sizeOf := make(map[fingerprint.Key]int)
		for _, it := range items {
			subOf[it.Index] = it.Substrate
			sizeOf[it.Substrate]++
		}
		balanced := (n + workers - 1) / workers
		spanOf := make(map[fingerprint.Key]int)
		for si, span := range p.Spans {
			var prev fingerprint.Key
			closed := make(map[fingerprint.Key]bool)
			for i, idx := range span {
				sub := subOf[idx]
				if owner, ok := spanOf[sub]; ok && owner != si && sizeOf[sub] <= balanced {
					t.Fatalf("seed %d: substrate of %d items (balanced span %d) split across workers %d and %d",
						seed, sizeOf[sub], balanced, owner, si)
				}
				spanOf[sub] = si
				if i > 0 && sub != prev {
					if closed[sub] {
						t.Fatalf("seed %d: substrate revisited after an interleaved run", seed)
					}
					closed[prev] = true
				}
				prev = sub
			}
		}
	}
}

// TestBuildClustersSharedComponents asserts groups sharing the highest
// priority component (the grid year) are adjacent in schedule order, so
// even partially-overlapping substrates reuse the expensive component.
func TestBuildClustersSharedComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	items := randomBatch(rng, 80)
	p := Build(items, 4)
	seenGrid := make(map[fingerprint.Key]bool)
	var prev fingerprint.Key
	for i, g := range p.Groups {
		grid := g.Cluster[0]
		if i > 0 && grid != prev && seenGrid[grid] {
			t.Fatal("groups sharing a grid year are not adjacent in schedule order")
		}
		seenGrid[prev] = true
		prev = grid
	}
}

// TestBuildStableWithinGroup asserts arrival order survives inside a
// group, and that Build is deterministic.
func TestBuildStableWithinGroup(t *testing.T) {
	items := []Item{
		itemOf(0, 1, 1, 1), itemOf(1, 2, 1, 1), itemOf(2, 1, 1, 1),
		itemOf(3, 1, 1, 1), itemOf(4, 2, 1, 1),
	}
	p := Build(items, 2)
	for _, g := range p.Groups {
		for i := 1; i < len(g.Indexes); i++ {
			if g.Indexes[i-1] >= g.Indexes[i] {
				t.Fatalf("group indexes out of arrival order: %v", g.Indexes)
			}
		}
	}
	q := Build(items, 2)
	if !reflect.DeepEqual(p, q) {
		t.Fatal("Build is not deterministic")
	}
}

// TestBuildBalancesSpans asserts the contiguous partition does not pile
// everything on one worker when group sizes allow balance.
func TestBuildBalancesSpans(t *testing.T) {
	var items []Item
	for g := 0; g < 8; g++ {
		for j := 0; j < 5; j++ {
			items = append(items, itemOf(len(items), g, g, 0))
		}
	}
	p := Build(items, 4)
	if len(p.Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(p.Spans))
	}
	for si, span := range p.Spans {
		if len(span) != 10 {
			t.Errorf("span %d has %d items, want 10 (balanced)", si, len(span))
		}
	}
}

// TestBuildSplitsOversizedGroups asserts a batch dominated by one
// substrate still fans out: the group is chunked to the balanced span
// size instead of serializing the whole batch on a single worker.
func TestBuildSplitsOversizedGroups(t *testing.T) {
	var items []Item
	for i := 0; i < 12; i++ {
		items = append(items, itemOf(i, 1, 1, 1)) // one substrate
	}
	p := Build(items, 4)
	if len(p.Spans) != 4 {
		t.Fatalf("single-substrate batch used %d workers, want 4", len(p.Spans))
	}
	seen := map[int]bool{}
	for _, span := range p.Spans {
		if len(span) != 3 {
			t.Errorf("span has %d items, want 3 (balanced)", len(span))
		}
		for _, idx := range span {
			if seen[idx] {
				t.Fatalf("index %d scheduled twice", idx)
			}
			seen[idx] = true
		}
	}
	if len(seen) != 12 {
		t.Fatalf("scheduled %d of 12", len(seen))
	}
}

// TestBuildSpanBalanceBound is the partition's balance property: for any
// batch and worker count, no span exceeds ceil(n/workers) plus one group
// chunk. The previous fill rule (skip a group that would overflow the
// running target) violated this — spans could undershoot, and cascading
// undershoot piled the skipped groups onto the final worker ~1.5x past
// the bound — so the batch sizes here draw group sizes adversarially
// (many mid-sized groups just above half the balanced share) as well as
// uniformly.
func TestBuildSpanBalanceBound(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		workers := 1 + rng.Intn(8)

		// Half the trials use the uniform pool; half synthesize skewed
		// group sizes directly (size-g runs of one substrate), which is
		// where the first-fit rule degenerated.
		var items []Item
		if seed%2 == 0 {
			items = randomBatch(rng, 1+rng.Intn(120))
		} else {
			label := 0
			for g := 1 + rng.Intn(12); g > 0; g-- {
				label++
				for size := 1 + rng.Intn(20); size > 0; size-- {
					items = append(items, itemOf(len(items), label, label, label))
				}
			}
		}
		n := len(items)
		balanced := (n + workers - 1) / workers
		maxGroup := 0
		sizeOf := map[fingerprint.Key]int{}
		for _, it := range items {
			sizeOf[it.Substrate]++
		}
		for _, size := range sizeOf {
			maxGroup = max(maxGroup, size)
		}
		// Chunking caps every scheduled group at the balanced share.
		maxChunk := min(maxGroup, balanced)
		bound := balanced + maxChunk

		p := Build(items, workers)
		scheduled := 0
		for si, span := range p.Spans {
			scheduled += len(span)
			if len(span) > bound {
				t.Fatalf("seed %d: span %d holds %d items; bound is ceil(%d/%d)+%d = %d",
					seed, si, len(span), n, workers, maxChunk, bound)
			}
		}
		if scheduled != n {
			t.Fatalf("seed %d: scheduled %d of %d items", seed, scheduled, n)
		}
	}
}

// TestBuildDegenerate covers empty batches and worker counts below 1.
func TestBuildDegenerate(t *testing.T) {
	if p := Build(nil, 4); len(p.Spans) != 0 || len(p.Groups) != 0 {
		t.Fatalf("empty batch produced a non-empty plan: %+v", p)
	}
	items := []Item{itemOf(0, 1, 1, 1), itemOf(1, 2, 2, 2)}
	p := Build(items, 0)
	if len(p.Spans) != 1 || len(p.Spans[0]) != 2 {
		t.Fatalf("workers=0 should clamp to one span: %+v", p)
	}
}
