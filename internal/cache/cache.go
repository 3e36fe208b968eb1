// Package cache provides the memoization primitive shared by the Engine's
// assessment memo and the substrate layer: a mutex-guarded map with an
// intrusive doubly-linked LRU list (O(1) touch and eviction, no linear
// scans) and singleflight semantics — concurrent first requests for a
// key collapse into a single computation via a per-entry sync.Once.
package cache

import (
	"errors"
	"sync"
	"sync/atomic"
)

// errComputePanicked is returned to goroutines that were waiting on a
// singleflight computation whose goroutine panicked out from under them.
var errComputePanicked = errors.New("cache: computation panicked")

// entry is one memoized value threaded on the LRU list. The zero list
// position is maintained by Cache; prev/next are protected by Cache.mu.
// val/err are written exactly once — by Get's singleflight computation
// (outside the cache lock) or by Add before the entry is shared — and
// the done flag publishes them: a reader that did not itself run the
// computation may touch val/err only after observing done, which is the
// ordering that lets Lookup, Delete, and Add's eviction report coexist
// with an in-flight Get on the same entry without a data race.
type entry[K comparable, V any] struct {
	key        K
	once       sync.Once
	done       atomic.Bool
	val        V
	err        error
	prev, next *entry[K, V]
}

// Cache is a bounded LRU memo. The zero value is not usable; construct
// with New. All methods are safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	max     int
	entries map[K]*entry[K, V]
	// head/tail sentinels, held inline so a cache costs no allocation
	// for them: head.next is most recent, tail.prev is the eviction
	// candidate.
	head, tail entry[K, V]
	hits       uint64
	misses     uint64
}

// New builds a cache holding at most max entries. max <= 0 disables
// memoization: Get always recomputes.
func New[K comparable, V any](max int) *Cache[K, V] {
	c := &Cache[K, V]{max: max, entries: make(map[K]*entry[K, V])}
	c.head.next = &c.tail
	c.tail.prev = &c.head
	return c
}

// unlink removes e from the LRU list.
func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

// remove drops a resident entry from the list and the map.
func (c *Cache[K, V]) remove(e *entry[K, V]) {
	c.unlink(e)
	delete(c.entries, e.key)
}

// pushFront inserts e as the most recently used entry.
func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev = &c.head
	e.next = c.head.next
	c.head.next.prev = e
	c.head.next = e
}

// touch moves a resident entry to the front of the list.
func (c *Cache[K, V]) touch(e *entry[K, V]) {
	c.unlink(e)
	c.pushFront(e)
}

// insert threads e at the front of the list under its key, then evicts
// least recently used entries while the cache holds more than max. The
// front entry is never evicted, so e survives its own insert. Published
// evicted values are appended to out when it is non-nil.
func (c *Cache[K, V]) insert(e *entry[K, V], out *[]Evicted[K, V]) {
	c.entries[e.key] = e
	c.pushFront(e)
	for len(c.entries) > c.max {
		oldest := c.tail.prev
		c.remove(oldest)
		if out != nil && oldest.done.Load() {
			*out = append(*out, Evicted[K, V]{Key: oldest.key, Val: oldest.val})
		}
	}
}

// Get returns the memoized value for key, computing it at most once per
// residency. The second return reports whether the value was served from
// cache (true even if the caller ends up waiting for a computation
// started by another goroutine). compute runs outside the cache lock.
//
// Errors are not memoized: a failed computation's entry is removed once
// it settles, so the next Get retries. Goroutines already waiting on the
// in-flight computation still share its error (one failing compute per
// stampede, not one per caller), but a transient failure — an injected
// fault, a cancelled dependency — never poisons the key until eviction.
func (c *Cache[K, V]) Get(key K, compute func() (V, error)) (V, bool, error) {
	return c.GetFresh(key, nil, compute)
}

// GetFresh is Get with a freshness test: a published value under key
// that fresh rejects is replaced in the same locked step — its slot is
// recomputed, not added beside it — and the lookup counts as a miss. A
// nil fresh accepts every value, which is exactly Get. An entry whose
// computation is still in flight is never replaced: the caller waits
// for it like any other hit and must check the value it gets. fresh
// runs under the cache lock, so it must be cheap and must not call
// back into the cache; it sees only values whose computation succeeded.
func (c *Cache[K, V]) GetFresh(key K, fresh func(V) bool, compute func() (V, error)) (V, bool, error) {
	if c.max <= 0 {
		v, err := compute()
		return v, false, err
	}
	c.mu.Lock()
	e, cached := c.entries[key]
	// fresh judges published values only: a failed computation's entry
	// (zero value, settled error, removal pending) is shared like a hit.
	if cached && fresh != nil && e.done.Load() && e.err == nil && !fresh(e.val) {
		c.unlink(e)
		cached = false
	}
	if cached {
		c.hits++
		c.touch(e)
	} else {
		c.misses++
		e = &entry[K, V]{key: key}
		c.insert(e, nil)
	}
	c.mu.Unlock()
	e.once.Do(func() {
		defer func() {
			if e.done.Load() {
				return
			}
			// compute panicked: the once is consumed but nothing was
			// published. Drop the entry so the key retries instead of
			// serving a zero value forever, and let the panic continue
			// to the caller (whose recovery owns the accounting).
			c.mu.Lock()
			if cur, ok := c.entries[key]; ok && cur == e {
				c.remove(e)
			}
			c.mu.Unlock()
		}()
		e.val, e.err = compute()
		e.done.Store(true)
	})
	if !e.done.Load() {
		// A waiter latched onto a computation that panicked: the panic
		// unwound the computing goroutine, not this one, so surface the
		// loss as an error rather than a phantom zero value.
		var zero V
		return zero, cached, errComputePanicked
	}
	if e.err != nil {
		c.mu.Lock()
		// Only the entry that failed is dropped: a concurrent replacement
		// under the same key (a retry that already succeeded) stays.
		if cur, ok := c.entries[key]; ok && cur == e {
			c.remove(e)
		}
		c.mu.Unlock()
	}
	return e.val, cached, e.err
}

// Evicted is one entry pushed out by the capacity bound, reported to
// callers that hold external resources behind cached values (the
// daemon's job queue cancels evicted running jobs).
type Evicted[K comparable, V any] struct {
	Key K
	Val V
}

// Add inserts an already-computed value, touching it most-recent, and
// returns the entries evicted by the capacity bound (oldest first).
// Together with Lookup and Delete it is the cache's table mode — same
// LRU machinery, no singleflight — used where values are produced
// externally (job retention) rather than memoized on demand. Adding an
// existing key replaces its entry, and the replaced value is reported
// as evicted so owners holding external resources never leak one; a Get
// already in flight on the old entry keeps observing the value it
// latched (entries are never mutated after publication, so replacement
// cannot tear a concurrent read, and Add never waits on an in-flight
// computation). An evicted entry whose singleflight computation has not
// published yet is removed but not reported — its value does not exist
// yet, and only the computing goroutine ever sees it. max <= 0 stores
// nothing.
func (c *Cache[K, V]) Add(key K, v V) []Evicted[K, V] {
	if c.max <= 0 {
		return []Evicted[K, V]{{Key: key, Val: v}}
	}
	// The value is published before the entry is shared, so no reader
	// ever sees it half-written.
	e := &entry[K, V]{key: key, val: v}
	e.once.Do(func() {}) // a later Get on this entry never recomputes
	e.done.Store(true)
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Evicted[K, V]
	if old, ok := c.entries[key]; ok {
		c.unlink(old)
		if old.done.Load() {
			out = append(out, Evicted[K, V]{Key: old.key, Val: old.val})
		}
	}
	c.insert(e, &out)
	return out
}

// Lookup returns the value under key without computing on a miss. A hit
// touches recency, so recently polled entries survive eviction longest.
// Lookup only observes published values: a Get-mode entry whose
// computation is still in flight reads as a miss (never as a torn or
// zero value), so table-mode reads and singleflight computes can share
// one cache safely.
func (c *Cache[K, V]) Lookup(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || !e.done.Load() {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.touch(e)
	return e.val, true
}

// Delete removes key. The boolean reports whether the key was resident;
// the value is returned only if published — deleting an entry whose
// singleflight computation is still in flight removes it (the next Get
// recomputes) but yields the zero value, since the computing goroutine
// is the only one allowed to see the result it is still producing.
func (c *Cache[K, V]) Delete(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.remove(e)
	if !e.done.Load() {
		var zero V
		return zero, true
	}
	return e.val, true
}

// Unhit counts one of the caller's hits as a miss: for a caller that
// was served a value it could not use and computed its own instead, so
// the counters tally what was served.
func (c *Cache[K, V]) Unhit() {
	c.mu.Lock()
	c.hits--
	c.misses++
	c.mu.Unlock()
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	Hits    uint64
	Misses  uint64
	Entries int
}

// Stats returns the current counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Entries: len(c.entries)}
}

// Keys returns the resident keys from most to least recently used — the
// eviction order reversed. Intended for tests asserting LRU behavior.
func (c *Cache[K, V]) Keys() []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]K, 0, len(c.entries))
	for e := c.head.next; e != &c.tail; e = e.next {
		out = append(out, e.key)
	}
	return out
}
