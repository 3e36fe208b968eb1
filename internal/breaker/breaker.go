// Package breaker is an error-budget circuit breaker for a degradable
// dependency: after K consecutive failures the breaker trips open and
// callers are denied (the tier above serves without the dependency,
// drop-and-count), until a cooldown elapses and a single half-open
// probe is admitted. A successful probe closes the breaker; a failed
// one re-opens it for another cooldown.
//
// The state machine:
//
//	closed ── K consecutive failures ──▶ open
//	open ── cooldown elapsed ──▶ half-open (one probe admitted)
//	half-open ── probe ok ──▶ closed
//	half-open ── probe fails ──▶ open (cooldown restarts)
//
// Concurrency: all methods are safe for concurrent use. Exactly one
// probe is outstanding at a time — concurrent Acquire calls during
// half-open get Deny until ProbeResult settles the in-flight probe.
// The clock is injectable for deterministic tests.
package breaker

import (
	"sync"
	"time"
)

// State is the breaker position.
type State int

// Breaker states.
const (
	Closed   State = iota // dependency healthy, calls flow
	Open     State = iota // dependency failing, calls denied
	HalfOpen State = iota // cooldown elapsed, one probe in flight
)

// String names the state ("closed", "open", "half-open").
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Decision is the outcome of Acquire.
type Decision int

// Acquire outcomes.
const (
	// Go admits the call normally; report its outcome with Record.
	Go Decision = iota
	// Probe admits the call as the half-open probe; the caller MUST
	// report the outcome with ProbeResult or the breaker stays half-open
	// with the probe slot occupied forever.
	Probe
	// Deny refuses the call: serve without the dependency.
	Deny
)

// Options configures New.
type Options struct {
	// Threshold is K: consecutive failures before the breaker trips
	// (default 5).
	Threshold int

	// Cooldown is how long the breaker stays open before admitting a
	// half-open probe (default 5s).
	Cooldown time.Duration

	// Now is the clock (default time.Now). Tests inject a fake to step
	// through cooldowns deterministically.
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.Threshold <= 0 {
		o.Threshold = 5
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 5 * time.Second
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Snapshot is a point-in-time view of the breaker for health reporting.
type Snapshot struct {
	State       string `json:"state"`
	Consecutive int    `json:"consecutive_failures"`
	Trips       uint64 `json:"trips"`       // closed→open transitions
	Denials     uint64 `json:"denials"`     // calls refused while open/half-open
	Probes      uint64 `json:"probes"`      // half-open probes admitted
	ProbeFails  uint64 `json:"probe_fails"` // probes that re-opened the breaker
}

// Breaker is the circuit breaker. Construct with New; the zero value is
// not usable.
type Breaker struct {
	opts Options

	mu          sync.Mutex
	state       State
	consecutive int
	openedAt    time.Time
	probing     bool
	trips       uint64
	denials     uint64
	probes      uint64
	probeFails  uint64
}

// New builds a breaker in the closed state.
func New(opts Options) *Breaker {
	return &Breaker{opts: opts.withDefaults()}
}

// Acquire asks to use the dependency. Go means proceed and Record the
// outcome; Probe means proceed as the single half-open probe and report
// via ProbeResult; Deny means serve without the dependency.
func (b *Breaker) Acquire() Decision {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return Go
	case Open:
		if b.opts.Now().Sub(b.openedAt) >= b.opts.Cooldown {
			b.state = HalfOpen
			b.probing = true
			b.probes++
			return Probe
		}
	case HalfOpen:
		if !b.probing {
			b.probing = true
			b.probes++
			return Probe
		}
	}
	b.denials++
	return Deny
}

// Record reports the outcome of a Go-admitted call. Failures accumulate
// toward the trip threshold; any success resets the run. Failures
// observed out-of-band (an async write-error callback) are reported
// here too.
func (b *Breaker) Record(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil {
		if b.state == Closed {
			b.consecutive = 0
		}
		return
	}
	b.consecutive++
	if b.state == Closed && b.consecutive >= b.opts.Threshold {
		b.trip()
	}
}

// ProbeResult settles the in-flight half-open probe: success closes the
// breaker, failure re-opens it for another cooldown.
func (b *Breaker) ProbeResult(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if err == nil {
		b.state = Closed
		b.consecutive = 0
		return
	}
	b.probeFails++
	b.consecutive++
	b.trip()
}

// trip moves to open and restarts the cooldown. Callers hold b.mu.
func (b *Breaker) trip() {
	b.state = Open
	b.openedAt = b.opts.Now()
	b.trips++
}

// State returns the current position.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Snapshot returns the counters for health reporting.
func (b *Breaker) Snapshot() Snapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	return Snapshot{
		State:       b.state.String(),
		Consecutive: b.consecutive,
		Trips:       b.trips,
		Denials:     b.denials,
		Probes:      b.probes,
		ProbeFails:  b.probeFails,
	}
}
