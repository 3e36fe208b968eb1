package main

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"sync"
	"time"

	"thirstyflops"
	"thirstyflops/internal/core"
	"thirstyflops/internal/wire"
)

// Serve shape: 4 systems × 4 seeds × 2 years = 32 configurations, each
// asked for in three shapes, well inside the 256-entry memo, and each
// response encoded as a wire frame or JSON, half each. The shares are
// assumptions, not a measured client mix (README.md lists them).
const (
	serveSeeds      = 4
	serveYears      = 2
	serveSeqRepeats = 21  // each (variant, encoding) pair per client sequence
	serveCheckEvery = 128 // every n-th request of a client is decoded and compared
	// Every request for every serveTraceConfigs-th configuration is
	// traced, so a replay's copy of the year is touched whenever the
	// memo's entry is and both are about equally warm in the cache.
	serveTraceConfigs = 8
)

// Request shapes: a plain assessment, with the Fig. 14 scenario sweep,
// or with Table 3 withdrawal accounting.
var serveShapes = []struct{ scenarios, withdrawal bool }{{false, false}, {true, false}, {false, true}}

// serveHot is an assumed dashboard client: closed-loop clients whose every
// request is a memo hit, so substrate and generators are bypassed and
// fingerprinting, derived sections, the memo and encoding dominate.
type serveHot struct {
	seed     uint64
	eng      *thirstyflops.Engine
	configs  []thirstyflops.AssessRequest // plain requests of the working set
	variants []thirstyflops.AssessRequest // configs × shapes
	refs     []*thirstyflops.AssessResult // setup-time result per variant
	seqs     [][]serveEntry               // per client, cycled
	pos      []int                        // per client, continued across phases
	annuals  []*core.Annual               // per traced config, for replays
}

type serveEntry struct {
	variant int
	wire    bool
}

func (w *serveHot) engine() *thirstyflops.Engine { return w.eng }
func (w *serveHot) unitsPerOp() float64          { return 1 }
func (w *serveHot) ticksPerYear() int64          { return 0 }

// clientCount is the number of load-generating goroutines: two, or one
// on a single-CPU machine.
func clientCount() int { return min(2, runtime.GOMAXPROCS(0)) }

func (w *serveHot) setup(seed uint64) error {
	w.seed = seed
	w.eng = newEngine(nil)
	rng := rngFor(seed, 0x5e7e)
	years := rng.Perm(40)[:serveYears]
	base := splitmix64(seed ^ 0x5e7e)
	w.configs, w.variants, w.refs, w.annuals = nil, nil, nil, nil
	for _, sys := range thirstyflops.SystemNames() {
		for k := 0; k < serveSeeds; k++ {
			s := base + uint64(k)
			for _, y := range years {
				year := 2000 + y
				w.configs = append(w.configs, thirstyflops.AssessRequest{System: sys, Seed: &s, Year: &year})
			}
		}
	}
	for _, c := range w.configs {
		for _, sh := range serveShapes {
			v := c
			v.Scenarios, v.Withdrawal = sh.scenarios, sh.withdrawal
			w.variants = append(w.variants, v)
		}
	}
	w.refs = make([]*thirstyflops.AssessResult, len(w.variants))
	for i, v := range w.variants {
		res, err := w.eng.Assess(context.Background(), v)
		if err != nil {
			return err
		}
		w.refs[i] = res
	}
	w.seqs = make([][]serveEntry, clientCount())
	w.pos = make([]int, clientCount())
	for c := range w.seqs {
		seq := make([]serveEntry, 0, 2*len(w.variants)*serveSeqRepeats)
		for r := 0; r < serveSeqRepeats; r++ {
			for v := range w.variants {
				seq = append(seq, serveEntry{v, false}, serveEntry{v, true})
			}
		}
		crng := rngFor(seed, uint64(c)^0xc11e)
		crng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
		w.seqs[c] = seq
	}
	return nil
}

func (w *serveHot) run(deadline time.Time, tr *tracer) []clientStats {
	if tr != nil && w.annuals == nil {
		w.annuals = make([]*core.Annual, len(w.configs))
		for i, c := range w.configs {
			if i%serveTraceConfigs != 0 {
				continue
			}
			cfg, _ := resolve(c)
			a, _, _ := cfg.AssessTraced()
			w.annuals[i] = &a
		}
	}
	stats := make([]clientStats, len(w.seqs))
	var wg sync.WaitGroup
	for c := range w.seqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stats[c] = w.client(c, deadline, tr)
		}(c)
	}
	wg.Wait()
	return stats
}

// client is one closed-loop client: it sends its next request
// when the previous response has been encoded.
func (w *serveHot) client(c int, deadline time.Time, tr *tracer) clientStats {
	ctx := context.Background()
	var (
		st  clientStats
		buf bytes.Buffer
	)
	seq := w.seqs[c]
	for n := int64(0); time.Now().Before(deadline); n++ {
		e := seq[w.pos[c]%len(seq)]
		w.pos[c]++
		req := w.variants[e.variant]
		config := e.variant / len(serveShapes)
		traced := tr != nil && config%serveTraceConfigs == 0
		op, top := int64(c)<<40|n, int32(-1)
		if traced {
			top = tr.begin("op", op, -1, kindOp)
		}

		t0 := time.Now()
		var root int32 = -1
		if traced {
			root = tr.begin("engine.Assess", op, top, kindRoot)
		}
		res, err := w.eng.Assess(ctx, req)
		if traced {
			tr.endHit(root, err == nil && res.Cached)
		}
		if err == nil {
			switch {
			case !traced && e.wire:
				encodeWire(res)
			case !traced:
				encodeJSON(&buf, res)
			case e.wire:
				tr.do("wire.EncodeResult", op, top, kindClient, func() { encodeWire(res) })
			default:
				tr.do("json.Encode", op, top, kindClient, func() { encodeJSON(&buf, res) })
			}
		}
		st.record(t0)
		st.attempted++
		// Every request must be answered from the memo.
		if err != nil || !res.Cached {
			st.failed++
		} else if n%serveCheckEvery == 0 && !w.check(res, e.variant) {
			st.failed++
		}
		if traced {
			_, d := replayAssess(tr, op, top, req, w.annuals[config])
			st.replay += d
			tr.end(top)
		}
	}
	return st
}

// check decodes the response in both encodings and compares each with
// the setup-time reference.
func (w *serveHot) check(res *thirstyflops.AssessResult, variant int) bool {
	fromWire, err := wire.DecodeResult(wire.EncodeResult(res))
	if err != nil {
		return false
	}
	body, err := json.Marshal(res)
	if err != nil {
		return false
	}
	var fromJSON thirstyflops.AssessResult
	if err := json.Unmarshal(body, &fromJSON); err != nil {
		return false
	}
	ref := w.refs[variant]
	return sameResult(fromWire, &fromJSON) && sameResult(fromWire, ref)
}

// sameResult compares two results field by field, ignoring whether
// either was served from the memo.
func sameResult(a, b *thirstyflops.AssessResult) bool {
	x, y := *a, *b
	x.Cached, y.Cached = false, false
	return reflect.DeepEqual(x, y)
}

// verify re-checks every variant once more after timing: the memo must
// still answer each with its setup-time result.
func (w *serveHot) verify() (checked, failed int64) {
	for i, v := range w.variants {
		checked++
		res, err := w.eng.Assess(context.Background(), v)
		if err != nil || !res.Cached || !w.check(res, i) {
			failed++
		}
	}
	return checked, failed
}

func (w *serveHot) layers() layerInputs {
	return layerInputs{req: w.variants[0], set: w.configs, results: w.refs}
}
