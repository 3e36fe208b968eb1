package main

import (
	"context"
	"runtime"
	"sync"
	"time"

	"thirstyflops"
	"thirstyflops/internal/core"
	"thirstyflops/internal/stats"
	"thirstyflops/internal/telemetry"
	"thirstyflops/internal/units"
)

// Live shape (an assumption, not a measured mix; README.md lists the
// shares): the read working set is systems × liveReadYears configurations
// varying only Year, sized near the 256-entry memo, so a read miss costs
// the core combine and never substrate generation.
const (
	liveReadYears    = 60
	liveReadsPerTick = 4
	liveReadSeqLen   = 8192
	liveTraceEvery   = 8 // every n-th tick's ingest and live assessment are traced
	// Every read of every liveTraceReads-th configuration is traced, so
	// a replay's copy of the year is touched as often as the memo's entry.
	liveTraceReads = 8
)

// liveChurn puts writes beside reads on one memo: each client owns some
// systems and replays their telemetry year hour by hour. A tick ingests
// one hour, asks for the fresh live assessment and makes a fixed number
// of simulated reads. Every tick inserts a new full-year live entry.
//
// Streams are pinned to their year (the daemon's -live-year): when a
// client has replayed a year, it registers fresh streams for the next
// year and carries on, so a run measures for its whole duration.
type liveChurn struct {
	seed    uint64
	eng     *thirstyflops.Engine
	reg     *thirstyflops.StreamRegistry
	systems []string
	live    []thirstyflops.AssessRequest // per system, source=live
	power   [][]units.Watts              // per system: the telemetry year
	reads   []thirstyflops.AssessRequest // the read working set
	seqs    [][]int                      // per client: read indices, cycled
	next    []int                        // per client: next tick, continued across phases
	years   []int                        // per system: the year its stream observes
	last    []*thirstyflops.AssessResult // per system: latest live result
	warm    []*thirstyflops.AssessResult // setup-time read results

	// Traced replays: each system's simulated year, a mirror stream that
	// receives the traced ticks' samples, and the year of each traced
	// read configuration.
	annuals []*core.Annual
	mirrors []*telemetry.Stream
	copies  []*core.Annual
}

func (w *liveChurn) engine() *thirstyflops.Engine { return w.eng }
func (w *liveChurn) unitsPerOp() float64          { return 1 }

// liveFirstYear is the year the first streams observe.
const liveFirstYear = 2023

// ticksPerYear is the replay's fixed work: every hour of every system.
func (w *liveChurn) ticksPerYear() int64 { return int64(len(w.systems) * stats.HoursPerYear) }

// startYear registers a fresh stream for system i observing year.
func (w *liveChurn) startYear(i, year int) error {
	s, err := thirstyflops.NewStream(w.systems[i], year, daemonLiveWindow)
	if err != nil {
		return err
	}
	w.reg.Register(s)
	w.years[i] = year
	w.live[i].Year = &w.years[i]
	if w.mirrors != nil {
		w.mirrors[i], err = telemetry.NewStream(w.systems[i], year, daemonLiveWindow)
	}
	return err
}

func (w *liveChurn) setup(seed uint64) error {
	ctx := context.Background()
	w.seed = seed
	w.systems = thirstyflops.SystemNames()
	w.reg = thirstyflops.NewStreamRegistry()
	w.eng = newEngine(w.reg)
	w.live, w.power, w.reads = nil, nil, nil
	w.years = make([]int, len(w.systems))
	w.last = make([]*thirstyflops.AssessResult, len(w.systems))
	w.annuals, w.mirrors, w.copies = nil, nil, nil
	base := splitmix64(seed ^ 0x11fe)
	for i, name := range w.systems {
		sys, err := thirstyflops.SystemByName(name)
		if err != nil {
			return err
		}
		s := base + uint64(i)
		w.live = append(w.live, thirstyflops.AssessRequest{System: name, Seed: &s, Source: thirstyflops.SourceLive})
		w.power = append(w.power, thirstyflops.PowerLogFor(sys, thirstyflops.DefaultDemand(), splitmix64(s), 0).Samples)
		for y := 0; y < liveReadYears; y++ {
			year := 1990 + y
			w.reads = append(w.reads, thirstyflops.AssessRequest{System: name, Seed: &s, Year: &year})
		}
	}
	for i := range w.systems {
		if err := w.startYear(i, liveFirstYear); err != nil {
			return err
		}
	}
	w.warm = make([]*thirstyflops.AssessResult, len(w.reads))
	for i, r := range w.reads {
		res, err := w.eng.Assess(ctx, r)
		if err != nil {
			return err
		}
		w.warm[i] = res
	}
	clients := clientCount()
	w.seqs = make([][]int, clients)
	w.next = make([]int, clients)
	for c := range w.seqs {
		rng := rngFor(seed, uint64(c)^0x4ead)
		w.seqs[c] = make([]int, liveReadSeqLen)
		for i := range w.seqs[c] {
			w.seqs[c][i] = rng.IntN(len(w.reads))
		}
	}
	return nil
}

func (w *liveChurn) run(deadline time.Time, tr *tracer) []clientStats {
	if tr != nil && w.annuals == nil {
		// Every year of a system's stream splices over the same
		// simulated figures: Year selects no substrate.
		w.mirrors = make([]*telemetry.Stream, len(w.systems))
		for i, r := range w.live {
			cfg, _ := resolve(r)
			a, _, _ := cfg.AssessTraced()
			w.annuals = append(w.annuals, &a)
			w.mirrors[i], _ = telemetry.NewStream(cfg.System.Name, w.years[i], daemonLiveWindow)
		}
		w.copies = make([]*core.Annual, len(w.reads))
		for i := 0; i < len(w.reads); i += liveTraceReads {
			cfg, _ := resolve(w.reads[i])
			a, _, _ := cfg.AssessTraced()
			w.copies[i] = &a
		}
	}
	out := make([]clientStats, len(w.seqs))
	var wg sync.WaitGroup
	for c := range w.seqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out[c] = w.client(c, deadline, tr)
		}(c)
	}
	wg.Wait()
	return out
}

// owned lists the systems client c replays.
func (w *liveChurn) owned(c int) []int {
	var out []int
	for i := c; i < len(w.systems); i += len(w.seqs) {
		out = append(out, i)
	}
	return out
}

func (w *liveChurn) client(c int, deadline time.Time, tr *tracer) clientStats {
	ctx := context.Background()
	var st clientStats
	mine := w.owned(c)
	seq := w.seqs[c]
	for n := int64(0); time.Now().Before(deadline); n++ {
		k := w.next[c]
		w.next[c]++
		perYear := len(mine) * stats.HoursPerYear
		year, j := liveFirstYear+k/perYear, k%perYear
		sys, hour := mine[j%len(mine)], j/len(mine)
		if w.years[sys] != year {
			// The system's year is replayed: it starts the next one.
			if err := w.startYear(sys, year); err != nil {
				st.failed++
			}
		}
		name := w.systems[sys]
		stream := w.reg.Resolve(name)
		smp := telemetry.Sample{System: name, Hour: hour, Power: w.power[sys][hour]}
		traced := tr != nil && n%liveTraceEvery == 0
		op, top := int64(c)<<40|n, int32(-1)
		if traced {
			top = tr.begin("op", op, -1, kindOp)
		}

		t0 := time.Now()
		id := w.root(traced, tr, op, top, "engine.Ingest")
		_, ierr := w.eng.Ingest(smp)
		tr.end(id)
		epoch := stream.Epoch()
		id = w.root(traced, tr, op, top, "engine.Assess")
		res, err := w.eng.Assess(ctx, w.live[sys])
		if traced {
			tr.endHit(id, err == nil && res.Cached)
		}
		st.record(t0)
		st.attempted++
		// The result must be fresh and spliced from the stream state the
		// ingest just produced.
		ok := ierr == nil && err == nil && !res.Cached && res.Live != nil &&
			res.Live.Epoch == epoch && res.Live.System == name
		if ok {
			w.last[sys] = res
		}
		if traced {
			st.replay += w.replayTick(tr, op, top, sys, smp, stream)
		}

		for r := 0; r < liveReadsPerTick; r++ {
			idx := seq[(w.next[c]*liveReadsPerTick+r)%len(seq)]
			req := w.reads[idx]
			rtraced := tr != nil && idx%liveTraceReads == 0
			if rtraced && top < 0 {
				top = tr.begin("op", op, -1, kindOp)
			}
			id := w.root(rtraced, tr, op, top, "engine.Assess")
			rres, rerr := w.eng.Assess(ctx, req)
			if rtraced {
				tr.endHit(id, rerr == nil && rres.Cached)
				var a *core.Annual
				if rerr == nil && rres.Cached {
					// A hit derives from the memoized year; a miss
					// combines it afresh.
					a = w.copies[idx]
				}
				_, d := replayAssess(tr, op, top, req, a)
				st.replay += d
			}
			ok = ok && rerr == nil && sameRequest(rres, req)
		}
		if !ok {
			st.failed++
		}
		tr.end(top)
	}
	return st
}

// root opens a root span when the tick is traced.
func (w *liveChurn) root(traced bool, tr *tracer, op int64, top int32, name string) int32 {
	if !traced {
		return -1
	}
	return tr.begin(name, op, top, kindRoot)
}

// replayTick re-runs the telemetry layer work of one tick: the ingest on
// a mirror stream, then the window snapshot and splice over the
// system's simulated year, and the result's resolve, fingerprint and
// derived sections.
func (w *liveChurn) replayTick(tr *tracer, op int64, top int32, sys int, smp telemetry.Sample, stream *thirstyflops.Stream) time.Duration {
	t0 := time.Now()
	mirror := w.mirrors[sys]
	tr.do("telemetry.Stream.Ingest", op, top, kindReplay, func() { runtime.KeepAlive(mirror.Ingest(smp)) })
	var a core.Annual
	splice := tr.begin("telemetry.splice", op, top, kindReplay)
	s := stream.Window().SpliceInto(w.annuals[sys].Hourly)
	tr.do("core.AnnualFrom", op, splice, kindReplay, func() { a = core.AnnualFrom(w.systems[sys], s) })
	tr.end(splice)
	replayAssess(tr, op, top, w.live[sys], &a)
	return time.Since(t0)
}

// verify recomputes each system's final live assessment independently:
// the stream's window spliced over a reference year from the core model.
func (w *liveChurn) verify() (checked, failed int64) {
	for i, name := range w.systems {
		checked++
		res := w.last[i]
		win := w.reg.Resolve(name).Window()
		cfg, err := resolve(w.live[i])
		if err != nil || res == nil || res.Live == nil || res.Live.Epoch != win.Epoch {
			failed++
			continue
		}
		base, err := cfg.Assess()
		if err != nil || !matchesAnnual(res, cfg, core.AnnualFrom(name, win.SpliceInto(base.Hourly))) {
			failed++
		}
	}
	return checked, failed
}

func (w *liveChurn) layers() layerInputs {
	return layerInputs{req: w.reads[0], set: w.reads, results: w.warm}
}
