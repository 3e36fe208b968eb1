package cache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestGetMemoizes(t *testing.T) {
	c := New[string, int](4)
	calls := 0
	compute := func() (int, error) { calls++; return 42, nil }

	v, cached, err := c.Get("a", compute)
	if err != nil || v != 42 || cached {
		t.Fatalf("first Get = (%d, %v, %v)", v, cached, err)
	}
	v, cached, err = c.Get("a", compute)
	if err != nil || v != 42 || !cached {
		t.Fatalf("second Get = (%d, %v, %v), want cached", v, cached, err)
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestGetRetriesAfterError(t *testing.T) {
	c := New[string, int](4)
	calls := 0
	flaky := func() (int, error) {
		calls++
		if calls == 1 {
			return 0, fmt.Errorf("boom")
		}
		return 9, nil
	}
	if _, _, err := c.Get("k", flaky); err == nil {
		t.Fatal("error swallowed")
	}
	// A failed computation must not poison the key: the next Get
	// recomputes instead of replaying the error until eviction.
	v, cached, err := c.Get("k", flaky)
	if err != nil || cached || v != 9 {
		t.Fatalf("retry Get = (%d, %v, %v), want a fresh successful compute", v, cached, err)
	}
	if calls != 2 {
		t.Errorf("compute ran %d times, want 2 (error evicted, success memoized)", calls)
	}
	if v, cached, _ := c.Get("k", flaky); !cached || v != 9 {
		t.Fatal("successful retry was not memoized")
	}
}

func TestGetPanickingComputeDoesNotPoison(t *testing.T) {
	c := New[string, int](4)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the computing caller")
			}
		}()
		c.Get("k", func() (int, error) { panic("boom") })
	}()
	// The consumed-once entry must not linger serving zero values: the
	// next Get recomputes.
	v, cached, err := c.Get("k", func() (int, error) { return 5, nil })
	if err != nil || cached || v != 5 {
		t.Fatalf("Get after panicking compute = (%d, %v, %v), want a fresh 5", v, cached, err)
	}
}

func TestLRUOrderAndEviction(t *testing.T) {
	c := New[string, int](2)
	get := func(k string) {
		t.Helper()
		if _, _, err := c.Get(k, func() (int, error) { return len(k), nil }); err != nil {
			t.Fatal(err)
		}
	}
	get("a")
	get("b")
	get("a") // touch a: b is now the eviction candidate
	get("c") // evicts b
	keys := c.Keys()
	if len(keys) != 2 || keys[0] != "c" || keys[1] != "a" {
		t.Fatalf("keys after eviction = %v, want [c a]", keys)
	}
	get("b") // miss again: b was evicted
	if s := c.Stats(); s.Misses != 4 || s.Hits != 1 {
		t.Errorf("stats = %+v, want 4 misses 1 hit", s)
	}
}

func TestDisabledCache(t *testing.T) {
	c := New[string, int](0)
	calls := 0
	for i := 0; i < 3; i++ {
		v, cached, err := c.Get("k", func() (int, error) { calls++; return 7, nil })
		if err != nil || v != 7 || cached {
			t.Fatalf("disabled Get = (%d, %v, %v)", v, cached, err)
		}
	}
	if calls != 3 {
		t.Errorf("disabled cache memoized: %d calls", calls)
	}
	if s := c.Stats(); s.Entries != 0 {
		t.Errorf("disabled cache stored entries: %+v", s)
	}
}

func TestSingleflight(t *testing.T) {
	c := New[string, int](4)
	var calls atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, _, err := c.Get("k", func() (int, error) {
				calls.Add(1)
				return 99, nil
			})
			if err != nil || v != 99 {
				t.Errorf("Get = (%d, %v)", v, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("concurrent first requests computed %d times, want 1", n)
	}
}

func TestConcurrentChurn(t *testing.T) {
	// Hammer a small cache from many goroutines (run with -race): the
	// entry count must never exceed the bound and every Get must return
	// the value its key computes.
	c := New[int, int](8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (w + i) % 32
				v, _, err := c.Get(k, func() (int, error) { return k * 10, nil })
				if err != nil || v != k*10 {
					t.Errorf("Get(%d) = (%d, %v)", k, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s := c.Stats(); s.Entries > 8 {
		t.Errorf("entries %d exceed bound 8", s.Entries)
	}
}

// TestTableMode exercises Add/Lookup/Delete: the job queue's retention
// usage of the LRU machinery.
func TestTableMode(t *testing.T) {
	c := New[string, int](2)
	if ev := c.Add("a", 1); len(ev) != 0 {
		t.Fatalf("Add a evicted %v", ev)
	}
	if ev := c.Add("b", 2); len(ev) != 0 {
		t.Fatalf("Add b evicted %v", ev)
	}
	if v, ok := c.Lookup("a"); !ok || v != 1 {
		t.Fatalf("Lookup a = (%d, %v)", v, ok)
	}
	// "a" was just touched, so adding "c" evicts "b".
	ev := c.Add("c", 3)
	if len(ev) != 1 || ev[0].Key != "b" || ev[0].Val != 2 {
		t.Fatalf("Add c evicted %v, want b/2", ev)
	}
	if _, ok := c.Lookup("b"); ok {
		t.Fatal("evicted entry still resident")
	}
	if v, ok := c.Delete("c"); !ok || v != 3 {
		t.Fatalf("Delete c = (%d, %v)", v, ok)
	}
	if _, ok := c.Lookup("c"); ok {
		t.Fatal("deleted entry still resident")
	}
	if _, ok := c.Delete("missing"); ok {
		t.Fatal("Delete of a missing key reported success")
	}
}

// TestAddOverwritesAndPublishes asserts Add replaces an existing value —
// reporting the replaced value as evicted, so owners can release the
// resource behind it — and that a later Get serves the added value
// without recomputing.
func TestAddOverwritesAndPublishes(t *testing.T) {
	c := New[string, int](4)
	c.Add("k", 1)
	if ev := c.Add("k", 2); len(ev) != 1 || ev[0].Key != "k" || ev[0].Val != 1 {
		t.Fatalf("replacement evicted %v, want the displaced k/1", ev)
	}
	v, cached, err := c.Get("k", func() (int, error) {
		t.Fatal("Get recomputed a published table entry")
		return 0, nil
	})
	if err != nil || !cached || v != 2 {
		t.Fatalf("Get after Add = (%d, %v, %v), want (2, true, nil)", v, cached, err)
	}
	if s := c.Stats(); s.Entries != 1 {
		t.Fatalf("entries = %d, want 1", s.Entries)
	}
}

// TestAddDisabled: a zero-capacity cache stores nothing and reports the
// value as immediately evicted, so owners always see their resource back.
func TestAddDisabled(t *testing.T) {
	c := New[string, int](0)
	ev := c.Add("k", 7)
	if len(ev) != 1 || ev[0].Val != 7 {
		t.Fatalf("disabled Add evicted %v, want the added value", ev)
	}
	if _, ok := c.Lookup("k"); ok {
		t.Fatal("disabled cache retained an entry")
	}
}

// TestMixedModeHammer drives every entry point — singleflight Get, table
// Add, Delete, Lookup — against one small cache concurrently. Run under
// -race it proves value publication is ordered: no reader may observe an
// entry's val while an in-flight Get computation is still writing it.
func TestMixedModeHammer(t *testing.T) {
	c := New[int, int](4)
	const (
		workers = 8
		rounds  = 400
		keys    = 6
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (w + i) % keys
				switch (w + i) % 4 {
				case 0:
					v, _, err := c.Get(k, func() (int, error) {
						// A deliberately slow compute widens the window in
						// which Delete/Lookup/Add can observe the entry.
						runtime.Gosched()
						return k * 10, nil
					})
					if err != nil || v != k*10 {
						t.Errorf("Get(%d) = %d, %v", k, v, err)
						return
					}
				case 1:
					for _, ev := range c.Add(k, k*10) {
						if ev.Val%10 != 0 {
							t.Errorf("evicted unpublished-looking value %d", ev.Val)
							return
						}
					}
				case 2:
					if v, ok := c.Lookup(k); ok && v != k*10 {
						t.Errorf("Lookup(%d) observed %d", k, v)
						return
					}
				case 3:
					if v, ok := c.Delete(k); ok && v != 0 && v != k*10 {
						t.Errorf("Delete(%d) observed %d", k, v)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestDeleteDuringInFlightGet pins the exact interleaving the hammer
// test relies on probability to hit: Delete runs while a Get computation
// is mid-flight. Delete must report the key existed without surfacing
// (or racing on) the unpublished value, and the Get must still return
// its computed value to its caller.
func TestDeleteDuringInFlightGet(t *testing.T) {
	c := New[string, int](4)
	started := make(chan struct{})
	release := make(chan struct{})
	got := make(chan int, 1)
	go func() {
		v, _, _ := c.Get("k", func() (int, error) {
			close(started)
			<-release
			return 42, nil
		})
		got <- v
	}()
	<-started
	v, ok := c.Delete("k")
	if !ok {
		t.Error("Delete did not find the in-flight key")
	}
	if v != 0 {
		t.Errorf("Delete surfaced unpublished value %d", v)
	}
	close(release)
	if v := <-got; v != 42 {
		t.Errorf("in-flight Get returned %d after Delete, want 42", v)
	}
}

// TestLookupDuringInFlightGet: table-mode reads must treat a
// still-computing singleflight entry as a miss, not as a zero value hit.
func TestLookupDuringInFlightGet(t *testing.T) {
	c := New[string, int](4)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Get("k", func() (int, error) {
			close(started)
			<-release
			return 42, nil
		})
	}()
	<-started
	if v, ok := c.Lookup("k"); ok {
		t.Errorf("Lookup observed in-flight entry as published value %d", v)
	}
	close(release)
	<-done
	if v, ok := c.Lookup("k"); !ok || v != 42 {
		t.Errorf("Lookup after publication = %d, %v", v, ok)
	}
}

// TestGetFreshReplacesRejected: a published value the predicate rejects
// is recomputed in its own slot and counted as one miss, not a hit.
func TestGetFreshReplacesRejected(t *testing.T) {
	c := New[string, int](2)
	c.Get("k", func() (int, error) { return 1, nil })
	c.Get("other", func() (int, error) { return 7, nil })
	atLeast2 := func(v int) bool { return v >= 2 }
	v, cached, err := c.GetFresh("k", atLeast2, func() (int, error) { return 2, nil })
	if err != nil || cached || v != 2 {
		t.Fatalf("GetFresh over a rejected value = (%d, %v, %v), want a fresh 2", v, cached, err)
	}
	if s := c.Stats(); s.Hits != 0 || s.Misses != 3 || s.Entries != 2 {
		t.Errorf("stats = %+v, want 3 misses and both keys resident", s)
	}
	v, cached, _ = c.GetFresh("k", atLeast2, func() (int, error) { t.Error("accepted value recomputed"); return 0, nil })
	if !cached || v != 2 {
		t.Errorf("GetFresh over an accepted value = (%d, %v), want a cached 2", v, cached)
	}
	if v, ok := c.Lookup("other"); !ok || v != 7 {
		t.Errorf("replacement evicted another key: Lookup = (%d, %v)", v, ok)
	}
}

// TestGetFreshWaitsOnInFlight: an entry still computing is never
// replaced, even by a predicate that rejects everything — the caller
// latches on and receives the in-flight value.
func TestGetFreshWaitsOnInFlight(t *testing.T) {
	c := New[string, int](4)
	started := make(chan struct{})
	release := make(chan struct{})
	go c.Get("k", func() (int, error) {
		close(started)
		<-release
		return 1, nil
	})
	<-started
	type result struct {
		v      int
		cached bool
	}
	got := make(chan result, 1)
	go func() {
		v, cached, _ := c.GetFresh("k", func(int) bool { return false }, func() (int, error) {
			t.Error("in-flight entry replaced")
			return 0, nil
		})
		got <- result{v, cached}
	}()
	for c.Stats().Hits == 0 { // the waiter has latched onto the entry
		runtime.Gosched()
	}
	close(release)
	if r := <-got; r.v != 1 || !r.cached {
		t.Errorf("GetFresh on an in-flight entry = %+v, want the in-flight 1, cached", r)
	}
}

// TestGetFreshNilIsGet: a nil predicate replays Get exactly — values,
// cached flags and counters.
func TestGetFreshNilIsGet(t *testing.T) {
	get, fresh := New[int, int](2), New[int, int](2)
	for i, k := range []int{1, 2, 1, 3, 2, 1, 1} {
		compute := func() (int, error) { return k*10 + i, nil }
		v1, c1, _ := get.Get(k, compute)
		v2, c2, _ := fresh.GetFresh(k, nil, compute)
		if v1 != v2 || c1 != c2 {
			t.Fatalf("step %d key %d: Get = (%d, %v), GetFresh(nil) = (%d, %v)", i, k, v1, c1, v2, c2)
		}
	}
	if a, b := get.Stats(), fresh.Stats(); a != b {
		t.Errorf("stats: Get %+v, GetFresh(nil) %+v", a, b)
	}
	if a, b := get.Keys(), fresh.Keys(); fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("recency: Get %v, GetFresh(nil) %v", a, b)
	}
}

// TestUnhitCountsMiss: a hit the caller could not use moves to the
// misses, and the entry stays resident.
func TestUnhitCountsMiss(t *testing.T) {
	c := New[int, int](2)
	compute := func() (int, error) { return 7, nil }
	c.Get(1, compute)
	if _, cached, _ := c.Get(1, compute); !cached {
		t.Fatal("second Get missed")
	}
	c.Unhit()
	if st := c.Stats(); st.Hits != 0 || st.Misses != 2 || st.Entries != 1 {
		t.Errorf("stats after Unhit = %+v, want 0 hits, 2 misses, 1 entry", st)
	}
}

// TestGetFreshConcurrentSameEpoch: callers that all reject the same
// published value replace it once — one computation, not one per caller.
func TestGetFreshConcurrentSameEpoch(t *testing.T) {
	c := New[string, int](4)
	c.Get("k", func() (int, error) { return 1, nil })
	var calls atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			v, _, err := c.GetFresh("k", func(v int) bool { return v >= 2 }, func() (int, error) {
				calls.Add(1)
				return 2, nil
			})
			if err != nil || v != 2 {
				t.Errorf("GetFresh = (%d, %v), want 2", v, err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Errorf("concurrent callers computed %d times, want 1", n)
	}
	if s := c.Stats(); s.Misses != 2 || s.Hits != 15 || s.Entries != 1 {
		t.Errorf("stats = %+v, want 2 misses (first fill, one replacement), 15 hits, 1 entry", s)
	}
}

// TestGetFreshSkipsFailedEntry puts a cache in the state a failing
// computation leaves for a moment — published with a nil value and an
// error, not yet removed — and looks the key up with a predicate that
// dereferences the value. The predicate is not consulted, the waiter
// shares the error, and the cache stays usable.
func TestGetFreshSkipsFailedEntry(t *testing.T) {
	c := New[int, *int](4)
	errBoom := errors.New("boom")
	e := &entry[int, *int]{key: 1, err: errBoom}
	e.once.Do(func() {})
	e.done.Store(true)
	c.mu.Lock()
	c.insert(e, nil)
	c.mu.Unlock()
	deref := func(p *int) bool { return *p > 0 }
	if v, cached, err := c.GetFresh(1, deref, func() (*int, error) { return new(int), nil }); v != nil || !cached || err != errBoom {
		t.Fatalf("GetFresh on a failed entry = (%v, cached=%v, %v), want the shared error", v, cached, err)
	}
	one := 1
	if v, cached, err := c.GetFresh(1, deref, func() (*int, error) { return &one, nil }); v != &one || cached || err != nil {
		t.Fatalf("retry = (%v, cached=%v, %v), want a fresh computation", v, cached, err)
	}
	unused := func() (*int, error) { t.Error("a fresh hit recomputed"); return nil, nil }
	if v, cached, err := c.GetFresh(1, deref, unused); v != &one || !cached || err != nil || c.Stats().Entries != 1 {
		t.Errorf("repeat = (%v, cached=%v, %v) with %d entries, want a hit on 1 entry", v, cached, err, c.Stats().Entries)
	}
}

// TestGetFreshFailingComputeRace races failing computations that publish
// a nil value against lookups whose predicate dereferences it (run with
// -race). Every call returns, and once quiet the key computes normally.
func TestGetFreshFailingComputeRace(t *testing.T) {
	c := New[int, *int](4)
	errBoom := errors.New("boom")
	deref := func(p *int) bool { return *p > 0 }
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if g%2 == 0 {
					c.GetFresh(1, deref, func() (*int, error) { return nil, errBoom })
				} else {
					c.GetFresh(1, deref, func() (*int, error) { return new(int), nil })
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("lookups did not return: a cache lock is held")
	}
	one := 1
	if _, _, err := c.GetFresh(2, deref, func() (*int, error) { return &one, nil }); err != nil {
		t.Fatal(err)
	}
	if s, n := c.Stats(), listLen(t, c); s.Entries != n {
		t.Errorf("%d entries, %d on the LRU list", s.Entries, n)
	}
}

// TestSharedBudgetCountUnderRace hammers one cache with every path that
// inserts or removes an entry — Get, GetFresh replacement, failing and
// panicking computes, Add and Delete — from many goroutines (run with
// -race). Once quiet, the map and the LRU list hold the same entries and
// the bound holds.
func TestSharedBudgetCountUnderRace(t *testing.T) {
	const max = 16
	c := New[int, int](max)
	errBoom := fmt.Errorf("boom")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				k := (w*7 + i) % 40
				switch i % 6 {
				case 0:
					c.Get(k, func() (int, error) { return k, nil })
				case 1:
					c.GetFresh(k, func(v int) bool { return v > i }, func() (int, error) { return i, nil })
				case 2:
					c.Get(k, func() (int, error) { return 0, errBoom })
				case 3:
					func() {
						defer func() { _ = recover() }()
						c.Get(k, func() (int, error) { panic("boom") })
					}()
				case 4:
					c.Add(k, k)
				case 5:
					c.Delete(k)
				}
			}
		}(w)
	}
	wg.Wait()
	n := listLen(t, c)
	if s := c.Stats(); s.Entries != n {
		t.Errorf("%d entries in the map, %d on the LRU list", s.Entries, n)
	}
	if n > max {
		t.Errorf("%d entries, bound %d", n, max)
	}
}

// listLen walks c's LRU list front to back, failing t on any entry the
// map does not hold under its key or whose back link is broken, and
// returns the list's length.
func listLen[V any](t *testing.T, c *Cache[int, V]) int {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for e := c.head.next; e != &c.tail; e = e.next {
		if c.entries[e.key] != e || e.next.prev != e {
			t.Fatalf("list entry %v is not the map's entry for its key or is mislinked", e.key)
		}
		n++
	}
	return n
}
