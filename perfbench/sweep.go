package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"thirstyflops"
	"thirstyflops/internal/core"
	"thirstyflops/internal/substrate"
)

// Sweep shape: each round, two batches of systems × 4 seeds × 3 years,
// sharing 2 seeds. With the four Table 1 systems (distinct sites and
// regions) a round touches 6 seeds × 13 substrate years = 78 generations.
const (
	sweepSeedsPerBatch = 4
	sweepSharedSeeds   = 2
	sweepYears         = 3
	sweepRoundSeeds    = 2*sweepSeedsPerBatch - sweepSharedSeeds
	sweepVerifyUnits   = 12
	sweepSetupSeed     = 0x5e7095eed
)

// sweepCold is an assumed analyst sweep: the substrate generators do most
// of the work. Every round's seeds are new, so every round regenerates
// the same number of substrate years and the work per round is fixed.
type sweepCold struct {
	seed    uint64
	eng     *thirstyflops.Engine
	systems []string
	next    int // next round index; later phases continue the sequence

	kept    []keptUnit // one unit per round, verified after timing
	warmSet []thirstyflops.AssessRequest
	warmRes []*thirstyflops.AssessResult
}

type keptUnit struct {
	req thirstyflops.AssessRequest
	res *thirstyflops.AssessResult
}

// splitmix64 is a bijective scrambler: distinct inputs stay distinct.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rngFor returns the generator for one stream of a run's inputs.
func rngFor(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(splitmix64(seed), splitmix64(stream)))
}

func (w *sweepCold) engine() *thirstyflops.Engine { return w.eng }
func (w *sweepCold) unitsPerOp() float64 {
	return float64(2 * len(w.systems) * sweepSeedsPerBatch * sweepYears)
}
func (w *sweepCold) ticksPerYear() int64 { return 0 }

func (w *sweepCold) setup(seed uint64) error {
	w.seed = seed
	w.eng = newEngine(nil)
	w.systems = thirstyflops.SystemNames()
	w.next = 0
	w.kept = nil
	// One round with its own seeds warms the heap and the worker pool;
	// its first batch, re-read from the memo, is the census working set.
	batches := w.round(-1)
	for b := range batches {
		if _, err := w.eng.AssessBatch(context.Background(), batches[b], nil); err != nil {
			return fmt.Errorf("warm round: %w", err)
		}
	}
	w.warmSet = batches[0]
	w.warmRes = make([]*thirstyflops.AssessResult, len(batches[0]))
	for i, req := range batches[0] {
		res, err := w.eng.Assess(context.Background(), req)
		if err != nil {
			return fmt.Errorf("warm round: %w", err)
		}
		w.warmRes[i] = res
	}
	return nil
}

// round generates round r's two batches from the run seed. Round -1 is
// the setup round: it is the same in every run, so set-up time does not
// depend on the seed, and its seeds never recur in timed rounds.
func (w *sweepCold) round(r int) [2][]thirstyflops.AssessRequest {
	seed := w.seed
	if r < 0 {
		seed = sweepSetupSeed
	}
	rng := rngFor(seed, uint64(int64(r))^0x5eed)
	base := splitmix64(seed) + uint64(int64(r))*sweepRoundSeeds
	years := rng.Perm(40)[:sweepYears]
	var out [2][]thirstyflops.AssessRequest
	for b := range out {
		first := b * (sweepSeedsPerBatch - sweepSharedSeeds)
		for _, sys := range w.systems {
			for j := 0; j < sweepSeedsPerBatch; j++ {
				s := base + uint64(first+j)
				for _, y := range years {
					year := 2000 + y
					out[b] = append(out[b], thirstyflops.AssessRequest{System: sys, Seed: &s, Year: &year})
				}
			}
		}
		rng.Shuffle(len(out[b]), func(i, j int) { out[b][i], out[b][j] = out[b][j], out[b][i] })
	}
	return out
}

func (w *sweepCold) run(deadline time.Time, tr *tracer) []clientStats {
	var c clientStats
	ctx := context.Background()
	for time.Now().Before(deadline) {
		r := w.next
		w.next++
		op := int64(r)
		batches := w.round(r)
		top := tr.begin("op", op, -1, kindOp)

		var (
			res   [2][]*thirstyflops.AssessResult
			wg    sync.WaitGroup
			start = make(chan struct{})
		)
		for b := range batches {
			wg.Add(1)
			go func(b int) {
				defer wg.Done()
				<-start
				id := tr.begin("engine.AssessBatch", op, top, kindRoot)
				// A failed unit leaves a nil result, counted below.
				res[b], _ = w.eng.AssessBatch(ctx, batches[b], nil)
				tr.end(id)
			}(b)
		}
		var cpu0 time.Duration
		if tr != nil {
			cpu0 = processCPU()
		}
		t0 := time.Now()
		close(start)
		wg.Wait()
		c.record(t0)
		if tr != nil {
			// The two batches run on the Engine's workers at once, so the
			// round costs the CPU time the process spent, not the sum of
			// the two roots' wall times.
			tr.opCost(op, processCPU()-cpu0)
		}

		for b := range batches {
			c.attempted += int64(len(batches[b]))
			for i, req := range batches[b] {
				if !sameRequest(res[b][i], req) {
					c.failed++
				}
			}
		}
		rng := rngFor(w.seed, uint64(r)^0xcec)
		b := rng.IntN(2)
		i := rng.IntN(len(batches[b]))
		w.kept = append(w.kept, keptUnit{req: batches[b][i], res: res[b][i]})

		if tr != nil {
			c.replay += w.replayRound(tr, op, top, batches)
			tr.end(top)
		}
	}
	return []clientStats{c}
}

// sameRequest reports whether res answers req: the program's outputs are
// checked bit for bit after timing, this only catches a missing or
// misrouted result.
func sameRequest(res *thirstyflops.AssessResult, req thirstyflops.AssessRequest) bool {
	return res != nil && res.System == req.System && res.Seed == *req.Seed && res.Year == *req.Year
}

// replayRound re-runs the layer work of one round beside it: the plan
// over both batches' substrate items, each distinct substrate year
// through its generator, and every unit's resolve, fingerprint, combine
// (once per distinct configuration) and derived sections.
func (w *sweepCold) replayRound(tr *tracer, op int64, top int32, batches [2][]thirstyflops.AssessRequest) time.Duration {
	t0 := time.Now()
	var cfgs []core.Config
	for _, batch := range batches {
		for _, req := range batch {
			cfg, _ := resolve(req)
			cfgs = append(cfgs, cfg)
		}
	}
	tr.do("plan.Build", op, top, kindReplay, func() { runtime.KeepAlive(planBuild(cfgs)) })

	type ident struct {
		system string
		seed   uint64
	}
	type unit struct {
		ident
		year int
	}
	seen := map[ident]bool{}
	demand := map[uint64]bool{}
	annual := map[unit]*core.Annual{}
	i := 0
	for _, batch := range batches {
		for _, req := range batch {
			cfg := cfgs[i]
			i++
			id := ident{cfg.System.Name, cfg.Seed}
			if !seen[id] {
				seen[id] = true
				replayGenerators(tr, op, top, cfg, !demand[cfg.Seed])
				demand[cfg.Seed] = true
			}
			u := unit{id, cfg.Year}
			annual[u], _ = replayAssess(tr, op, top, req, annual[u])
		}
	}
	return time.Since(t0)
}

func (w *sweepCold) verify() (checked, failed int64) {
	rng := rngFor(w.seed, 0x7e51f)
	picks := rng.Perm(len(w.kept))
	if len(picks) > sweepVerifyUnits {
		picks = picks[:sweepVerifyUnits]
	}
	// The reference path generates every substrate year afresh.
	substrate.SetCapacity(0)
	defer substrate.SetCapacity(substrate.DefaultCapacity)
	for _, p := range picks {
		u := w.kept[p]
		checked++
		cfg, err := resolve(u.req)
		if err != nil {
			failed++
			continue
		}
		a, err := cfg.Assess()
		if err != nil || u.res == nil || !matchesAnnual(u.res, cfg, a) {
			failed++
		}
	}
	return checked, failed
}

// matchesAnnual reports whether res carries exactly, bit for bit, the
// figures the core model derives from the reference year a.
func matchesAnnual(res *thirstyflops.AssessResult, cfg core.Config, a core.Annual) bool {
	bd, err := cfg.EmbodiedBreakdown()
	if err != nil {
		return false
	}
	f, err := cfg.LifetimeFromBreakdown(a, bd, thirstyflops.DefaultLifetimeYears)
	if err != nil {
		return false
	}
	_, _, wi := a.WaterIntensity()
	want := []float64{
		float64(a.Energy), float64(a.Direct), float64(a.Indirect), float64(a.Operational()),
		a.DirectShare(), a.Carbon.Kilograms(), float64(wi), float64(a.AdjustedWaterIntensity(cfg.Scarcity)),
		float64(bd.Total()), float64(f.Total()),
	}
	got := []float64{
		res.EnergyKWh, res.DirectL, res.IndirectL, res.OperationalL,
		res.DirectShare, res.CarbonKg, res.WaterIntensity, res.AdjustedIntensity,
		res.EmbodiedL, res.LifetimeTotalL,
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			return false
		}
	}
	return res.System == a.System && res.Seed == cfg.Seed && res.Year == cfg.Year
}

func (w *sweepCold) layers() layerInputs {
	return layerInputs{req: w.warmSet[0], set: w.warmSet, results: w.warmRes}
}
