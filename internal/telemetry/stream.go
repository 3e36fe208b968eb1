package telemetry

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"thirstyflops/internal/series"
	"thirstyflops/internal/stats"
	"thirstyflops/internal/units"
)

// Sample is one observed power reading: a live counterpart of one entry
// of a PowerLog, tagged with the absolute hour-of-year it was measured
// in. Multiple samples for the same hour are averaged, so sub-hourly
// feeds can simply post every reading.
type Sample struct {
	System string      `json:"system,omitempty"`
	Hour   int         `json:"hour"`
	Power  units.Watts `json:"power_w"`
}

// Validate checks the sample for physical plausibility: a finite,
// non-negative power at an hour inside the simulated year.
func (s Sample) Validate() error {
	if p := float64(s.Power); math.IsNaN(p) || math.IsInf(p, 0) {
		return fmt.Errorf("telemetry: non-finite power %v at hour %d", p, s.Hour)
	}
	if s.Power < 0 {
		return fmt.Errorf("telemetry: negative power %v at hour %d", float64(s.Power), s.Hour)
	}
	if s.Hour < 0 || s.Hour >= stats.HoursPerYear {
		return fmt.Errorf("telemetry: hour %d outside the simulated year [0, %d)", s.Hour, stats.HoursPerYear)
	}
	return nil
}

// slot is one ring-buffer bucket: the running sum and count of every
// accepted sample for one absolute hour. Averaging at read time (sum /
// count) keeps ingestion O(1) regardless of feed rate.
type slot struct {
	hour  int // absolute hour currently held; -1 when empty
	sum   float64
	count int
}

// Stream is a concurrency-safe ring buffer of the most recent hours of
// observed IT power. Ingest buckets each accepted sample into its hour's
// slot in O(1) — out-of-order and duplicate-hour samples are tolerated,
// sub-hourly feeds average — and Window materializes the retained hours
// as an incrementally-maintained view without rescanning sample history.
//
// Every accepted sample advances a monotonic epoch, and every instance
// has a process-unique id that grows with each NewStream. Consumers that
// cache anything derived from the stream (the Engine's live assessments)
// store the instance and epoch of the snapshot beside the cached value,
// serving it only at that version, so a cached result can never outlive
// the observations it was computed from; because both only grow, a value
// at an older version — including one priced from a stream that a
// registry replacement superseded — can be replaced in place (the Engine
// keeps one live slot per stream label and configuration).
//
// A Stream is safe for use from multiple goroutines; construct one with
// NewStream.
type Stream struct {
	id     uint64 // process-unique instance id (streamIDs)
	system string
	year   int
	window int

	mu       sync.RWMutex
	slots    []slot
	head     int // exclusive upper bound of observed hours; 0 = empty
	epoch    uint64
	accepted uint64
	rejected uint64
}

// NewStream builds a ring buffer retaining the most recent windowHours of
// observed samples for one system's year. An empty system label accepts
// samples from any system; year 0 leaves the stream unpinned to an
// assessment year. The window is clamped to the simulated year length.
func NewStream(system string, year int, windowHours int) (*Stream, error) {
	if windowHours <= 0 {
		return nil, fmt.Errorf("telemetry: stream window %d must be positive", windowHours)
	}
	if windowHours > stats.HoursPerYear {
		windowHours = stats.HoursPerYear
	}
	s := &Stream{id: streamIDs.Add(1), system: system, year: year, window: windowHours, slots: make([]slot, windowHours)}
	for i := range s.slots {
		s.slots[i].hour = -1
	}
	return s, nil
}

// streamIDs numbers Stream instances in creation order, so a registry
// replacement restarting at epoch 0 is still newer than its
// predecessor.
var streamIDs atomic.Uint64

// System is the stream's system label ("" accepts any system).
func (s *Stream) System() string { return s.system }

// Year is the assessment year the stream is pinned to (0 = unpinned).
func (s *Stream) Year() int { return s.year }

// WindowHours is the ring-buffer capacity in hours.
func (s *Stream) WindowHours() int { return s.window }

// Ingest buckets one sample into its hour. It returns an error (and
// counts a rejection) when the sample fails validation, names a
// different system, or falls before the retained window; accepted
// samples advance the stream epoch.
func (s *Stream) Ingest(smp Sample) error {
	if err := smp.Validate(); err != nil {
		s.reject()
		return err
	}
	if smp.System != "" && s.system != "" && smp.System != s.system {
		s.reject()
		return fmt.Errorf("telemetry: sample for system %q on a %q stream", smp.System, s.system)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if lo := s.head - s.window; smp.Hour < lo {
		s.rejected++
		return fmt.Errorf("telemetry: hour %d fell behind the retained window [%d, %d)", smp.Hour, lo, s.head)
	}
	sl := &s.slots[smp.Hour%s.window]
	if sl.hour != smp.Hour {
		// The slot holds an expired hour (or nothing): reclaim it.
		sl.hour = smp.Hour
		sl.sum = 0
		sl.count = 0
	}
	sl.sum += float64(smp.Power)
	sl.count++
	if smp.Hour >= s.head {
		s.head = smp.Hour + 1
	}
	s.accepted++
	s.epoch++
	return nil
}

func (s *Stream) reject() {
	s.mu.Lock()
	s.rejected++
	s.mu.Unlock()
}

// Epoch returns the monotonic ingestion counter: it advances on every
// accepted sample, so equal epochs imply identical stream contents.
func (s *Stream) Epoch() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.epoch
}

// LiveWindow is an atomic snapshot of the stream's retained hours,
// materialized as per-hour averaged IT energy. Hours inside [Lo, Hi)
// with no samples have Observed false and a zero energy; splicing keeps
// the simulated value for them.
type LiveWindow struct {
	System   string
	Year     int
	Instance uint64 // the stream's instance id; a replacement's is larger
	Epoch    uint64

	Lo, Hi   int // retained absolute hour range [Lo, Hi)
	Energy   []units.KWh
	Observed []bool

	HoursObserved int
	Samples       uint64
}

// Window snapshots the retained hours under one lock acquisition, so the
// returned view is consistent with its Epoch even while feeds keep
// posting.
func (s *Stream) Window() LiveWindow {
	s.mu.RLock()
	defer s.mu.RUnlock()
	w := LiveWindow{
		System:   s.system,
		Year:     s.year,
		Instance: s.id,
		Epoch:    s.epoch,
		Samples:  s.accepted,
		Hi:       s.head,
	}
	w.Lo = s.head - s.window
	if w.Lo < 0 {
		w.Lo = 0
	}
	n := w.Hi - w.Lo
	w.Energy = make([]units.KWh, n)
	w.Observed = make([]bool, n)
	for h := w.Lo; h < w.Hi; h++ {
		sl := s.slots[h%s.window]
		if sl.hour != h || sl.count == 0 {
			continue
		}
		w.Energy[h-w.Lo] = units.Watts(sl.sum / float64(sl.count)).EnergyOver(1)
		w.Observed[h-w.Lo] = true
		w.HoursObserved++
	}
	return w
}

// SpliceInto overlays the window's observed energy onto a simulated
// hourly timeline: observed hours replace the modeled demand, unobserved
// hours (gaps inside the window and everything outside it) keep the
// simulation. Only the energy channel is copied; the result shares base's
// WUE, EWF and carbon channels — live telemetry reports what the machine
// drew, the site and grid models still price each hour's water and
// carbon. base is not modified.
func (w LiveWindow) SpliceInto(base series.Series) series.Series {
	out := base
	out.Energy = append([]units.KWh(nil), base.Energy...)
	for i, ok := range w.Observed {
		if h := w.Lo + i; ok && h < out.Len() {
			out.Energy[h] = w.Energy[i]
		}
	}
	return out
}

// Series materializes a fully-observed window that still retains hour 0
// into a typed timeline, combining the averaged observed energy with
// modeled intensity channels exactly as PowerLog.Series does: a year
// ingested sample-by-sample yields a Series bit-identical to the batch
// conversion. The channels must cover every observed hour.
func (s *Stream) Series(pue units.PUE, wue, ewf []units.LPerKWh,
	carbon []units.GCO2PerKWh) (series.Series, error) {
	w := s.Window()
	if w.Hi == 0 {
		return series.Series{}, fmt.Errorf("telemetry: stream is empty")
	}
	if w.Lo != 0 {
		return series.Series{}, fmt.Errorf("telemetry: window no longer retains hour 0 (covers [%d, %d))", w.Lo, w.Hi)
	}
	for i, ok := range w.Observed {
		if !ok {
			return series.Series{}, fmt.Errorf("telemetry: hour %d has no samples", w.Lo+i)
		}
	}
	out, err := series.From(pue, w.Energy, wue, ewf, carbon)
	if err != nil {
		return series.Series{}, fmt.Errorf("telemetry: %s: %w", s.system, err)
	}
	return out, nil
}

// Status is the /livez view of a stream: how much of the window has
// been observed and how far ingestion lags behind it.
type Status struct {
	System      string `json:"system,omitempty"`
	Year        int    `json:"year,omitempty"`
	WindowHours int    `json:"window_hours"`

	Epoch    uint64 `json:"epoch"`
	Accepted uint64 `json:"samples_accepted"`
	Rejected uint64 `json:"samples_rejected"`

	// Covered hour range [Lo, Hi); LatestHour is Hi-1, -1 when empty.
	Lo            int `json:"window_lo_hour"`
	Hi            int `json:"window_hi_hour"`
	LatestHour    int `json:"latest_hour"`
	HoursObserved int `json:"hours_observed"`
	// LagHours counts the gap hours inside the retained window — hours
	// the splice still answers from simulation.
	LagHours int `json:"lag_hours"`
}

// Status snapshots the stream's ingestion counters and coverage. Unlike
// Window it allocates nothing: the counters are derived from the slots
// in place, so high-frequency /livez polling stays cheap.
func (s *Stream) Status() Status {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Status{
		System:      s.system,
		Year:        s.year,
		WindowHours: s.window,
		Epoch:       s.epoch,
		Accepted:    s.accepted,
		Rejected:    s.rejected,
		Hi:          s.head,
		LatestHour:  s.head - 1,
	}
	st.Lo = s.head - s.window
	if st.Lo < 0 {
		st.Lo = 0
	}
	for h := st.Lo; h < st.Hi; h++ {
		if sl := s.slots[h%s.window]; sl.hour == h && sl.count > 0 {
			st.HoursObserved++
		}
	}
	st.LagHours = (st.Hi - st.Lo) - st.HoursObserved
	return st
}
