package telemetry

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// ErrNoStream reports a sample routed to a system with no registered
// stream. Callers that surface routing failures distinctly (the daemon's
// 404-style /ingest answer, the statsd aggregator's unknown-system drop
// counter) test for it with errors.Is.
var ErrNoStream = errors.New("telemetry: no stream registered for system")

// Registry routes samples and live assessments across one Stream per
// fleet system. Resolution is by exact system name, falling back to a
// wildcard stream (one registered with an empty system label) when
// present — a single wildcard stream reproduces the pre-registry
// single-stream behavior exactly.
//
// A Registry is safe for use from multiple goroutines; streams are
// usually registered once at startup, but registration remains safe
// while feeds are live.
type Registry struct {
	mu      sync.RWMutex
	streams map[string]*Stream
	advance func(system string, epoch uint64)
}

// NewRegistry builds an empty stream registry.
func NewRegistry() *Registry {
	return &Registry{streams: make(map[string]*Stream)}
}

// Register adds a stream keyed by its system label ("" registers the
// wildcard fallback). Registering a second stream for the same system
// replaces the first — the replaced stream keeps working for callers
// still holding it, it just stops receiving routed samples.
func (r *Registry) Register(s *Stream) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.streams[s.System()] = s
}

// Resolve returns the stream a sample or assessment for the named
// system routes to: the exact match when one is registered, otherwise
// the wildcard stream, otherwise nil.
func (r *Registry) Resolve(system string) *Stream {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if s, ok := r.streams[system]; ok {
		return s
	}
	return r.streams[""]
}

// Ingest routes one sample to its system's stream. A sample naming a
// system with no registered stream (and no wildcard) fails with an
// error wrapping ErrNoStream; everything else is the stream's own
// acceptance decision. An accepted sample fires the OnAdvance hook.
func (r *Registry) Ingest(smp Sample) error {
	s := r.Resolve(smp.System)
	if s == nil {
		return fmt.Errorf("%w: %q", ErrNoStream, smp.System)
	}
	if err := s.Ingest(smp); err != nil {
		return err
	}
	r.mu.RLock()
	fn := r.advance
	r.mu.RUnlock()
	if fn != nil {
		fn(s.System(), s.Epoch())
	}
	return nil
}

// OnAdvance registers a hook fired after every sample Ingest accepts,
// with the owning stream's system label ("" when the sample routed to
// the wildcard stream — an advance that shifts every system's live
// assessment) and the stream's epoch after the accept. The hook runs
// on the ingesting goroutine — the statsd flush path — so it must not
// block; the daemon's watch hub satisfies that with a non-blocking
// Poke. One hook; registering replaces the previous.
func (r *Registry) OnAdvance(fn func(system string, epoch uint64)) {
	r.mu.Lock()
	r.advance = fn
	r.mu.Unlock()
}

// Len reports how many streams are registered.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.streams)
}

// Systems lists the registered system labels in sorted order (the
// wildcard stream sorts first as the empty string).
func (r *Registry) Systems() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.streams))
	for sys := range r.streams {
		out = append(out, sys)
	}
	sort.Strings(out)
	return out
}

// Streams returns the registered streams ordered by system label.
func (r *Registry) Streams() []*Stream {
	r.mu.RLock()
	defer r.mu.RUnlock()
	systems := make([]string, 0, len(r.streams))
	for sys := range r.streams {
		systems = append(systems, sys)
	}
	sort.Strings(systems)
	out := make([]*Stream, len(systems))
	for i, sys := range systems {
		out[i] = r.streams[sys]
	}
	return out
}

// Statuses snapshots every registered stream's /livez view, ordered by
// system label. Each snapshot is the stream's own atomic Status; the
// set is not globally atomic (feeds keep posting between rows).
func (r *Registry) Statuses() []Status {
	streams := r.Streams()
	out := make([]Status, len(streams))
	for i, s := range streams {
		out[i] = s.Status()
	}
	return out
}

// Summarize folds per-stream statuses into one fleet-level Status — the
// backward-compatible top-level /livez object. Counters sum (the epoch
// sum stays monotonic because every per-stream epoch is), the covered
// range is the union [min Lo, max Hi), and WindowHours reports the
// widest stream.
func Summarize(sts []Status) Status {
	var out Status
	out.LatestHour = -1
	first := true
	for _, st := range sts {
		out.Epoch += st.Epoch
		out.Accepted += st.Accepted
		out.Rejected += st.Rejected
		out.HoursObserved += st.HoursObserved
		out.LagHours += st.LagHours
		if st.WindowHours > out.WindowHours {
			out.WindowHours = st.WindowHours
		}
		if st.LatestHour > out.LatestHour {
			out.LatestHour = st.LatestHour
		}
		if first || st.Lo < out.Lo {
			out.Lo = st.Lo
		}
		if st.Hi > out.Hi {
			out.Hi = st.Hi
		}
		first = false
	}
	return out
}
