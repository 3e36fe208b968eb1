package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span kinds. A root is a call into the Engine; a replay re-runs, beside
// the root, a layer function the root runs inside the program, so the
// layer's cost can be timed without instrumenting the program; client
// work (response encoding) happens outside any root; an op groups the
// spans of one operation.
const (
	kindOp uint8 = iota
	kindRoot
	kindReplay
	kindClient
)

var kindNames = [...]string{"op", "root", "replay", "client"}

// span is one timed interval. parent indexes the tracer's span slice
// (-1 for none); op groups the spans of one operation, and census spans
// carry negative op ids.
type span struct {
	name       string
	op         int64
	parent     int32
	kind       uint8
	hit        bool
	start, end int64 // ns since the tracer was created
}

// tracer keeps spans in memory; write stores them at the end of a run.
// All methods are safe for concurrent use and no-ops on a nil tracer.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	cost  map[int64]time.Duration // per op: root cost measured as CPU time

	// Census byproducts that are counts rather than spans.
	gridAllocs            uint64
	frameBytes, bodyBytes float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16), cost: map[int64]time.Duration{}}
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, op int64, parent int32, kind uint8) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, kind: kind, start: now})
	id := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return id
}

// end closes span id; ids below 0 (spans not opened) are ignored.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// opCost records the cost of op's roots as CPU time, for an op whose
// roots run in parallel inside the program; the root accounting then
// uses it instead of the roots' summed wall times.
func (t *tracer) opCost(op int64, cpu time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.cost[op] = cpu
	t.mu.Unlock()
}

// endHit closes a root span, recording whether the Engine answered it
// from its memo.
func (t *tracer) endHit(id int32, hit bool) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].end = now
	t.spans[id].hit = hit
	t.mu.Unlock()
}

// do runs f inside a span and returns the span's wall time, which the
// caller adds to its replay account when the span is a replay.
func (t *tracer) do(name string, op int64, parent int32, kind uint8, f func()) time.Duration {
	t0 := time.Now()
	id := t.begin(name, op, parent, kind)
	f()
	t.end(id)
	return time.Since(t0)
}

// summary is what the per-layer metrics are computed from.
type summary struct {
	self  map[string][]float64 // self time per span name, ns
	dur   map[string][]float64 // duration per span name, ns
	hitNs []float64            // engine.Assess roots answered from the memo

	// Root accounting over non-census operations: the summed cost of
	// roots (wall time, or the op's CPU time where it was recorded) and
	// the summed self time of the replays of their layers, which run
	// one after the other in the client's goroutine.
	rootNs, attributedNs float64

	gridAllocs            uint64
	frameBytes, bodyBytes float64
}

// layer is the median self time of span name, or its median duration
// when full is set.
func (s summary) layer(name string, full bool) float64 {
	xs := s.self[name]
	if full {
		xs = s.dur[name]
	}
	return median(append([]float64(nil), xs...))
}

// summarize computes every span's self time: its duration minus the
// part of its interval that its children cover.
func (t *tracer) summarize() summary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][]int32)
	for i, sp := range t.spans {
		if sp.parent >= 0 {
			children[sp.parent] = append(children[sp.parent], int32(i))
		}
	}
	s := summary{
		self:       map[string][]float64{},
		dur:        map[string][]float64{},
		gridAllocs: t.gridAllocs,
		frameBytes: t.frameBytes,
		bodyBytes:  t.bodyBytes,
	}
	for i, sp := range t.spans {
		dur := float64(sp.end - sp.start)
		self := dur - float64(covered(t.spans, sp, children[int32(i)]))
		s.self[sp.name] = append(s.self[sp.name], self)
		s.dur[sp.name] = append(s.dur[sp.name], dur)
		if sp.kind == kindRoot && sp.name == "engine.Assess" && sp.hit {
			s.hitNs = append(s.hitNs, dur)
		}
		if sp.op < 0 {
			continue
		}
		switch sp.kind {
		case kindRoot:
			if _, ok := t.cost[sp.op]; !ok {
				s.rootNs += dur
			}
		case kindReplay:
			s.attributedNs += self
		}
	}
	for _, cpu := range t.cost {
		s.rootNs += float64(cpu)
	}
	return s
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(spans []span, parent span, kids []int32) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].start, parent.start), min(spans[k].end, parent.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// write stores the spans as CSV, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,name,op,parent,kind,hit,start_ns,end_ns")
	t.mu.Lock()
	for i, sp := range t.spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%s,%t,%d,%d\n", i, sp.name, sp.op, sp.parent, kindNames[sp.kind], sp.hit, sp.start, sp.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
