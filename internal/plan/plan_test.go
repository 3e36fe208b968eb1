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
// batches and worker counts: every index appears in exactly one group,
// a group holds one substrate, a substrate's chunks are adjacent in the
// group sequence, no chunk exceeds ceil(n/workers), and a substrate is
// chunked only when it is wider than that.
func TestBuildProperties(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		workers := 1 + rng.Intn(8)
		items := randomBatch(rng, n)
		p := Build(items, workers)

		subOf := make(map[int]fingerprint.Key, n)
		sizeOf := make(map[fingerprint.Key]int)
		for _, it := range items {
			subOf[it.Index] = it.Substrate
			sizeOf[it.Substrate]++
		}
		chunks := make(map[fingerprint.Key]int)
		balanced := (n + workers - 1) / workers
		seen := make(map[int]bool, n)
		closed := make(map[fingerprint.Key]bool)
		for gi, g := range p.Groups {
			if len(g.Indexes) == 0 || len(g.Indexes) > balanced {
				t.Fatalf("seed %d: group %d holds %d items; want 1..ceil(%d/%d) = %d",
					seed, gi, len(g.Indexes), n, workers, balanced)
			}
			chunks[g.Substrate]++
			for _, idx := range g.Indexes {
				if seen[idx] {
					t.Fatalf("seed %d: index %d scheduled twice", seed, idx)
				}
				seen[idx] = true
				if subOf[idx] != g.Substrate {
					t.Fatalf("seed %d: index %d sits in another substrate's group", seed, idx)
				}
			}
			if gi > 0 && p.Groups[gi-1].Substrate != g.Substrate {
				if closed[g.Substrate] {
					t.Fatalf("seed %d: substrate's chunks are not adjacent", seed)
				}
				closed[p.Groups[gi-1].Substrate] = true
			}
		}
		if len(seen) != n {
			t.Fatalf("seed %d: scheduled %d of %d indices", seed, len(seen), n)
		}
		// A substrate splits only as far as chunking requires.
		for sub, size := range sizeOf {
			if want := (size + balanced - 1) / balanced; chunks[sub] != want {
				t.Fatalf("seed %d: substrate of %d items in %d chunks, want %d", seed, size, chunks[sub], want)
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

// TestBuildSplitsOversizedGroups asserts a batch dominated by one
// substrate still fans out: the group is chunked to ceil(n/workers)
// instead of serializing the whole batch on a single worker.
func TestBuildSplitsOversizedGroups(t *testing.T) {
	var items []Item
	for i := 0; i < 12; i++ {
		items = append(items, itemOf(i, 1, 1, 1)) // one substrate
	}
	p := Build(items, 4)
	if len(p.Groups) != 4 {
		t.Fatalf("single-substrate batch made %d chunks, want 4", len(p.Groups))
	}
	next := 0
	for _, g := range p.Groups {
		if len(g.Indexes) != 3 {
			t.Errorf("chunk has %d items, want 3", len(g.Indexes))
		}
		for _, idx := range g.Indexes {
			if idx != next {
				t.Fatalf("chunks hold index %d where arrival order is %d", idx, next)
			}
			next++
		}
	}
}

// TestBuildDegenerate covers empty batches and worker counts below 1.
func TestBuildDegenerate(t *testing.T) {
	if p := Build(nil, 4); len(p.Groups) != 0 {
		t.Fatalf("empty batch produced a non-empty plan: %+v", p)
	}
	items := []Item{itemOf(0, 1, 1, 1), itemOf(1, 1, 1, 1), itemOf(2, 2, 2, 2)}
	p := Build(items, 0)
	if len(p.Groups) != 2 || len(p.Groups[0].Indexes)+len(p.Groups[1].Indexes) != 3 {
		t.Fatalf("workers=0 should clamp to one worker and chunk nothing: %+v", p)
	}
}
