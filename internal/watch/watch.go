// Package watch is the daemon's push plane: a subscription hub that
// turns stream-epoch advances into fanned-out live re-assessments.
//
// Clients register interest in a system (the daemon's SSE `GET /watch`
// route holds one Subscriber per connection) and the hub is poked
// whenever that system's telemetry stream epoch advances — on each
// statsd flush or /ingest batch. Each poke wakes the system's pump
// goroutine, which re-checks the epoch, runs at most one re-assessment
// per epoch (the Assess callback goes through the engine's cached live
// path, whose one memo slot per stream and configuration makes the fill
// shared by every subscriber of that system), and publishes the result to every
// subscriber with a per-system monotonic event ID.
//
// The flush path never blocks on a slow client: Poke is a non-blocking
// signal, publication happens on the pump goroutine, and each
// subscriber owns a bounded queue that drops its oldest undelivered
// event (counted) when full — drop-to-latest, so a stalled reader skips
// intermediate epochs but always converges on the newest state, and the
// epochs it does observe stay strictly monotonic.
//
// Accounting is closed: at quiescence with every subscriber closed,
//
//	Enqueued == Delivered + DroppedSlow + Discarded
//
// (every event placed in a subscriber queue was handed to its reader,
// evicted for slowness, or still pending when the subscriber closed),
// and Shutdowns counts exactly the subscribers that were signaled by a
// hub Shutdown — the daemon's graceful drain, which terminates each SSE
// stream with a final `shutdown` event.
package watch

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Errors Subscribe can return. The daemon maps ErrSubscriberLimit onto
// 429 and ErrClosed onto 503.
var (
	ErrClosed          = errors.New("watch: hub is shut down")
	ErrSubscriberLimit = errors.New("watch: subscriber limit reached")
)

// DefaultBuffer is the per-subscriber queue bound when Options.Buffer is
// unset: enough to ride out a scheduling hiccup, small enough that a
// wedged client pins a handful of events, not an unbounded backlog.
const DefaultBuffer = 4

// Options wires a Hub.
type Options[T any] struct {
	// Assess computes the payload for one system's current observed
	// state and reports the stream epoch the payload reflects. It runs
	// on the system's pump goroutine — never on the poking (flush/
	// ingest) path — and at most once per epoch advance regardless of
	// subscriber count. Required.
	Assess func(ctx context.Context, system string) (data T, epoch uint64, err error)
	// Epoch reports a system's current stream epoch, the cheap pre-check
	// that dedupes pokes without paying an assessment; ok=false skips
	// the poke entirely. Nil disables the pre-check (every poke
	// assesses; publication still dedupes on Assess's returned epoch).
	Epoch func(system string) (epoch uint64, ok bool)
	// MaxSubscribers caps concurrent subscribers across all systems
	// (<= 0 means unlimited). Subscribe past the cap fails with
	// ErrSubscriberLimit — the hub's own admission control, since the
	// daemon exempts the long-lived /watch streams from its gate.
	MaxSubscribers int
	// Buffer bounds each subscriber's undelivered-event queue
	// (<= 0 means DefaultBuffer).
	Buffer int
}

// Event is one published re-assessment. ID is strictly monotonic per
// system (it survives subscriber churn, so Last-Event-ID resume works
// across reconnects) and Epoch is the stream epoch Data reflects.
type Event[T any] struct {
	System string
	ID     uint64
	Epoch  uint64
	Data   T
}

// Stats snapshots the hub's counters for /healthz and /livez.
type Stats struct {
	// Systems is the number of topics (systems ever subscribed to);
	// Subscribers is the current live subscriber count.
	Systems     int `json:"systems"`
	Subscribers int `json:"subscribers"`
	MaxSubs     int `json:"max_subscribers,omitempty"`
	Buffer      int `json:"buffer"`

	// Published counts events emitted by pumps (one per epoch advance
	// per system with subscribers); Enqueued counts per-subscriber queue
	// placements (fanout + resume replays).
	Published uint64 `json:"events_published"`
	Enqueued  uint64 `json:"events_enqueued"`

	// The closed-accounting split of Enqueued: handed to a reader,
	// evicted drop-to-latest, or pending when the subscriber closed.
	Delivered   uint64 `json:"events_delivered"`
	DroppedSlow uint64 `json:"events_dropped_slow"`
	Discarded   uint64 `json:"events_discarded"`

	// Rejected counts Subscribe calls refused at the cap; AssessErrors
	// counts failed re-assessments (retried on the next poke);
	// Shutdowns counts subscribers terminated by Shutdown.
	Rejected     uint64 `json:"subscribers_rejected"`
	AssessErrors uint64 `json:"assess_errors"`
	Shutdowns    uint64 `json:"shutdowns"`
}

// Hub fans epoch-driven re-assessments out to subscribers. Construct
// with New; safe for use from multiple goroutines.
type Hub[T any] struct {
	opts   Options[T]
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	topics map[string]*topic[T]
	nsubs  int
	closed bool
	wg     sync.WaitGroup // pump goroutines

	published    atomic.Uint64
	enqueued     atomic.Uint64
	delivered    atomic.Uint64
	droppedSlow  atomic.Uint64
	discarded    atomic.Uint64
	rejected     atomic.Uint64
	assessErrors atomic.Uint64
	shutdowns    atomic.Uint64
}

// New builds a hub. Options.Assess must be set.
func New[T any](opts Options[T]) *Hub[T] {
	if opts.Buffer <= 0 {
		opts.Buffer = DefaultBuffer
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Hub[T]{
		opts:   opts,
		ctx:    ctx,
		cancel: cancel,
		topics: make(map[string]*topic[T]),
	}
}

// topic is one system's fanout state: its subscribers, the latest
// published event (kept for resume replay even after the last
// subscriber leaves), and the dirty signal its pump goroutine sleeps on.
type topic[T any] struct {
	hub    *Hub[T]
	system string
	dirty  chan struct{} // cap 1: pokes coalesce

	mu        sync.Mutex
	subs      map[*Subscriber[T]]struct{}
	latest    *Event[T]
	nextID    uint64
	lastEpoch uint64
	assessed  bool // lastEpoch is meaningful
	stopped   bool // hub shut down; new subscribers stop immediately
}

// Subscribe registers interest in one system. With replay, the latest
// published event (if any) is enqueued immediately — the Last-Event-ID
// resume path, which re-emits the current epoch's result. Close the
// subscriber when done; every Subscribe must be paired with a Close or
// its slot leaks against MaxSubscribers.
func (h *Hub[T]) Subscribe(system string, replay bool) (*Subscriber[T], error) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, ErrClosed
	}
	if h.opts.MaxSubscribers > 0 && h.nsubs >= h.opts.MaxSubscribers {
		h.mu.Unlock()
		h.rejected.Add(1)
		return nil, ErrSubscriberLimit
	}
	h.nsubs++
	t := h.topics[system]
	if t == nil {
		t = &topic[T]{
			hub:    h,
			system: system,
			dirty:  make(chan struct{}, 1),
			subs:   make(map[*Subscriber[T]]struct{}),
		}
		h.topics[system] = t
		h.wg.Add(1)
		go t.pump()
	}
	h.mu.Unlock()

	sub := &Subscriber[T]{
		topic:  t,
		buffer: h.opts.Buffer,
		ready:  make(chan struct{}, 1),
	}
	t.mu.Lock()
	t.subs[sub] = struct{}{}
	var latest *Event[T]
	if replay {
		latest = t.latest
	}
	stopped := t.stopped
	t.mu.Unlock()
	if latest != nil {
		sub.push(*latest)
	}
	if stopped {
		// Shutdown raced the registration: this subscriber would never
		// be signaled by the (already finished) drain loop, so stop it
		// here — its handler still gets the final shutdown event.
		sub.stop()
	}
	return sub, nil
}

// Poke signals that a system's stream epoch may have advanced. It never
// blocks and does nothing for systems nobody has ever subscribed to —
// the flush and ingest paths call it freely.
func (h *Hub[T]) Poke(system string) {
	h.mu.Lock()
	t := h.topics[system]
	h.mu.Unlock()
	if t != nil {
		t.wake()
	}
}

// PokeAll signals every topic — the wildcard-stream case, where one
// shared stream's epoch advance shifts every subscribed system's
// assessment.
func (h *Hub[T]) PokeAll() {
	h.mu.Lock()
	topics := make([]*topic[T], 0, len(h.topics))
	for _, t := range h.topics {
		topics = append(topics, t)
	}
	h.mu.Unlock()
	for _, t := range topics {
		t.wake()
	}
}

// Subscribers reports the current live subscriber count.
func (h *Hub[T]) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.nsubs
}

// Shutdown drains the hub: pumps stop (in-flight assessments are
// canceled), then every subscriber is signaled to stop — the daemon's
// SSE handlers drain their queues, write the final `shutdown` event,
// and return, which is what lets http.Server.Shutdown finish while
// streams are open. Idempotent; Subscribe fails with ErrClosed after.
func (h *Hub[T]) Shutdown() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	topics := make([]*topic[T], 0, len(h.topics))
	for _, t := range h.topics {
		topics = append(topics, t)
	}
	h.mu.Unlock()

	h.cancel()
	h.wg.Wait() // pumps have exited: no further publishes
	for _, t := range topics {
		t.mu.Lock()
		t.stopped = true
		subs := make([]*Subscriber[T], 0, len(t.subs))
		for s := range t.subs {
			subs = append(subs, s)
		}
		t.mu.Unlock()
		for _, s := range subs {
			s.stop()
		}
	}
}

// Stats snapshots the hub counters.
func (h *Hub[T]) Stats() Stats {
	h.mu.Lock()
	systems, subs := len(h.topics), h.nsubs
	h.mu.Unlock()
	return Stats{
		Systems:      systems,
		Subscribers:  subs,
		MaxSubs:      h.opts.MaxSubscribers,
		Buffer:       h.opts.Buffer,
		Published:    h.published.Load(),
		Enqueued:     h.enqueued.Load(),
		Delivered:    h.delivered.Load(),
		DroppedSlow:  h.droppedSlow.Load(),
		Discarded:    h.discarded.Load(),
		Rejected:     h.rejected.Load(),
		AssessErrors: h.assessErrors.Load(),
		Shutdowns:    h.shutdowns.Load(),
	}
}

// wake marks the topic dirty; a pending mark absorbs further wakes.
func (t *topic[T]) wake() {
	select {
	case t.dirty <- struct{}{}:
	default:
	}
}

// pump is the topic's single worker: it serializes re-assessment and
// publication per system, so published epochs are strictly increasing
// and pokes arriving mid-assessment coalesce into one re-check.
func (t *topic[T]) pump() {
	defer t.hub.wg.Done()
	for {
		select {
		case <-t.hub.ctx.Done():
			return
		case <-t.dirty:
		}
		t.refresh()
	}
}

// refresh re-checks the epoch and publishes one event if it advanced.
// With no subscribers the poke is absorbed without assessing — the next
// subscriber catches up on the epoch advance after its subscription.
func (t *topic[T]) refresh() {
	h := t.hub
	t.mu.Lock()
	n := len(t.subs)
	assessed, last := t.assessed, t.lastEpoch
	t.mu.Unlock()
	if n == 0 {
		return
	}
	if h.opts.Epoch != nil {
		epoch, ok := h.opts.Epoch(t.system)
		// Epoch 0 means the stream has never accepted a sample: there is
		// no observed state to assess yet, so the poke is absorbed.
		if !ok || epoch == 0 || (assessed && epoch <= last) {
			return
		}
	}
	data, at, err := h.opts.Assess(h.ctx, t.system)
	if err != nil {
		h.assessErrors.Add(1)
		return
	}
	t.publish(data, at)
}

// publish fans one assessed payload out, unless its epoch has already
// been published (a redundant poke that raced the previous assessment).
func (t *topic[T]) publish(data T, epoch uint64) {
	t.mu.Lock()
	if t.assessed && epoch <= t.lastEpoch {
		t.mu.Unlock()
		return
	}
	t.nextID++
	ev := Event[T]{System: t.system, ID: t.nextID, Epoch: epoch, Data: data}
	t.latest = &ev
	t.lastEpoch = epoch
	t.assessed = true
	subs := make([]*Subscriber[T], 0, len(t.subs))
	for s := range t.subs {
		subs = append(subs, s)
	}
	t.mu.Unlock()
	t.hub.published.Add(1)
	for _, s := range subs {
		s.push(ev)
	}
}

// remove unregisters a closed subscriber. The topic itself is kept (its
// latest event and ID counter serve resume after reconnects); pumps are
// cheap and bounded by the number of distinct systems ever watched.
func (t *topic[T]) remove(s *Subscriber[T]) {
	t.mu.Lock()
	_, present := t.subs[s]
	delete(t.subs, s)
	t.mu.Unlock()
	if present {
		t.hub.mu.Lock()
		t.hub.nsubs--
		t.hub.mu.Unlock()
	}
}

// Subscriber is one client's bounded event queue. The owning handler
// waits on Ready, drains with Next, and checks Stopping after each
// drain; it must Close the subscriber when the connection ends.
type Subscriber[T any] struct {
	topic  *topic[T]
	buffer int
	ready  chan struct{} // cap 1: signal, not queue

	mu       sync.Mutex
	queue    []Event[T]
	closed   bool
	stopping bool
	dropped  uint64
}

// Ready is signaled whenever the queue becomes non-empty or the hub is
// shutting down. It is a level signal: after waking, drain Next until
// it reports empty.
func (s *Subscriber[T]) Ready() <-chan struct{} { return s.ready }

// Next pops the oldest undelivered event; ok=false means the queue is
// (currently) empty.
func (s *Subscriber[T]) Next() (ev Event[T], ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		return ev, false
	}
	ev = s.queue[0]
	copy(s.queue, s.queue[1:])
	s.queue = s.queue[:len(s.queue)-1]
	s.topic.hub.delivered.Add(1)
	return ev, true
}

// Stopping reports whether the hub has shut down: the handler should
// drain, emit its final shutdown event, and return.
func (s *Subscriber[T]) Stopping() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopping
}

// Dropped reports how many of this subscriber's events were evicted
// drop-to-latest because its queue was full.
func (s *Subscriber[T]) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Close releases the subscriber: pending events are counted as
// discarded and the cap slot frees. Idempotent.
func (s *Subscriber[T]) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	pending := len(s.queue)
	s.queue = nil
	s.mu.Unlock()
	if pending > 0 {
		s.topic.hub.discarded.Add(uint64(pending))
	}
	s.topic.remove(s)
}

// push appends one event, evicting the oldest when the queue is full —
// drop-to-latest: the subscriber always converges on the newest state,
// and because events arrive in publication order, what it observes
// stays strictly monotonic in both ID and epoch.
func (s *Subscriber[T]) push(ev Event[T]) {
	h := s.topic.hub
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	h.enqueued.Add(1)
	if len(s.queue) >= s.buffer {
		copy(s.queue, s.queue[1:])
		s.queue = s.queue[:len(s.queue)-1]
		s.dropped++
		h.droppedSlow.Add(1)
	}
	s.queue = append(s.queue, ev)
	s.mu.Unlock()
	s.signal()
}

// stop marks the subscriber as terminating on hub shutdown and wakes
// its handler.
func (s *Subscriber[T]) stop() {
	s.mu.Lock()
	if s.closed || s.stopping {
		s.mu.Unlock()
		return
	}
	s.stopping = true
	s.mu.Unlock()
	s.topic.hub.shutdowns.Add(1)
	s.signal()
}

func (s *Subscriber[T]) signal() {
	select {
	case s.ready <- struct{}{}:
	default:
	}
}
