package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"thirstyflops"
	"thirstyflops/internal/substrate"
)

// workload is one traffic shape. A run calls setup setupReps times (each
// from a cold substrate layer, replacing the previous state), then one or
// two timed phases that continue where the previous one stopped, then
// verify. Operations are the workload's own unit: a sweep round, a
// served request, a telemetry tick.
type workload interface {
	// setup builds the Engine and the generated inputs from seed and
	// warms whatever the timed phase must find warm.
	setup(seed uint64) error
	// run drives the clients until deadline. tr is nil when untraced.
	run(deadline time.Time, tr *tracer) []clientStats
	// unitsPerOp converts operations into the units ops_per_s counts.
	unitsPerOp() float64
	// verify checks the outputs the timed phases produced against
	// independent reference paths; every mismatch is a failed check.
	verify() (checked, failed int64)
	// layers hands the census its inputs: a request warm in the memo, a
	// working set for the planner, and setup-time results to encode.
	layers() layerInputs
	// ticksPerYear is the telemetry replay's fixed work (0 when the
	// workload ingests nothing).
	ticksPerYear() int64
	engine() *thirstyflops.Engine
}

// clientStats is one client goroutine's account of a phase.
type clientStats struct {
	ops, attempted, failed int64
	lat                    []float64 // kept latency samples, ms
	stride                 int64     // operations each kept sample stands for
	replay                 time.Duration
}

// sampleCap bounds the samples a client keeps, so the benchmark's own
// memory does not grow with the program's throughput and rss_peak_mb
// stays the program's: when the buffer fills, every other sample is
// dropped and the stride doubles, which keeps a uniform sample.
const sampleCap = 1 << 15

// record notes one operation that started at t0 and has just completed.
func (c *clientStats) record(t0 time.Time) {
	c.ops++
	if c.stride == 0 {
		c.stride = 1
		c.lat = make([]float64, 0, sampleCap)
	}
	if c.ops%c.stride != 0 {
		return
	}
	c.lat = append(c.lat, float64(time.Since(t0).Nanoseconds())/1e6)
	if len(c.lat) == sampleCap {
		kept := c.lat[:0]
		for i := 1; i < len(c.lat); i += 2 {
			kept = append(kept, c.lat[i])
		}
		c.lat = kept
		c.stride *= 2
	}
}

// phaseResult aggregates a timed phase.
type phaseResult struct {
	ops, attempted, failed int64
	lat                    []float64 // sorted
	kept                   int       // latency samples kept
	elapsed                time.Duration
	opsPerS                float64 // units per second over the phase, replays excluded

	mallocs, bytes, gcs uint64
	pauseNs             uint64
	before, after       thirstyflops.CacheStats
	steal               float64
}

type runOptions struct {
	seed      uint64
	duration  time.Duration
	traced    bool
	spansPath string
}

type report struct {
	result result
	diag   map[string]float64
}

// timed runs one measured phase from a collected heap.
func timed(w workload, d time.Duration, tr *tracer) phaseResult {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p := phaseResult{before: w.engine().CacheStats()}
	steal0, total0 := cpuTicks()
	start := time.Now()
	clients := w.run(start.Add(d), tr)
	p.elapsed = time.Since(start)
	steal1, total1 := cpuTicks()
	p.after = w.engine().CacheStats()
	runtime.ReadMemStats(&m1)
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.bytes = m1.TotalAlloc - m0.TotalAlloc
	p.gcs = uint64(m1.NumGC - m0.NumGC)
	p.pauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	if total1 > total0 {
		p.steal = float64(steal1-steal0) / float64(total1-total0)
	}
	for _, c := range clients {
		p.ops += c.ops
		p.attempted += c.attempted
		p.failed += c.failed
		// Each client's rate is taken over its own measured time, so
		// the replays a traced client makes between operations do not
		// count against the program.
		if busy := (p.elapsed - c.replay).Seconds(); busy > 0 {
			p.opsPerS += float64(c.ops) * w.unitsPerOp() / busy
		}
	}
	// Clients may keep samples at different strides: a sample of a
	// sparser client is counted as often as it stands for more
	// operations, so every operation weighs the same in the quantiles.
	minStride := int64(math.MaxInt64)
	for _, c := range clients {
		if c.stride > 0 {
			minStride = min(minStride, c.stride)
		}
	}
	for _, c := range clients {
		p.kept += len(c.lat)
		for _, l := range c.lat {
			for k := int64(0); k < c.stride/minStride; k++ {
				p.lat = append(p.lat, l)
			}
		}
	}
	sort.Float64s(p.lat)
	return p
}

// run executes one benchmark run of w.
func run(w workload, o runOptions) (report, error) {
	setups := make([]float64, 0, setupReps)
	for rep := 0; rep < setupReps; rep++ {
		substrate.SetCapacity(substrate.DefaultCapacity)
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(o.seed); err != nil {
			return report{}, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep := report{result: result{Metrics: map[string]metric{}}, diag: map[string]float64{}}
	calib := calibrate()

	var phases []phaseResult
	var tr *tracer
	if o.traced {
		// The untraced half is the overhead baseline and the source of
		// the runtime and counter metrics; the traced half records spans.
		phases = append(phases, timed(w, o.duration/2, nil))
		tr = newTracer()
		phases = append(phases, timed(w, o.duration/2, tr))
	} else {
		phases = append(phases, timed(w, o.duration, nil))
	}
	checked, bad := w.verify()
	for _, p := range phases {
		rep.result.Attempted += p.attempted
		rep.result.Failed += p.failed
	}
	rep.result.Failed += bad
	rep.result.Correct = bad == 0 && rep.result.Failed == 0 && checked > 0
	if rep.result.Attempted < 1 {
		return report{}, fmt.Errorf("no operation was attempted")
	}

	first := phases[0]
	// p99 is a diagnostic: with few samples beyond it, it is noisy.
	rep.diag["diag.p99_ms"] = quantile(first.lat, 0.99)
	rep.diag["diag.p99_samples"] = float64(first.kept)
	rep.diag["host.steal_share"] = first.steal
	rep.diag["host.calib_ms"] = calib
	rep.diag["verify.checked"] = float64(checked)
	rep.diag["ops"] = float64(first.ops)

	m := rep.result.Metrics
	if !o.traced {
		setMetric(m, "setup_s", "s", median(setups))
		setMetric(m, "ops_per_s", "1/s", first.opsPerS)
		setMetric(m, "p50_ms", "ms", quantile(first.lat, 0.5))
		setMetric(m, "p90_ms", "ms", quantile(first.lat, 0.9))
		setMetric(m, "rss_peak_mb", "MB", peakRSSMB())
		return rep, nil
	}

	census(tr, w.engine(), w.layers())
	if o.spansPath != "" {
		if err := tr.write(o.spansPath); err != nil {
			return report{}, err
		}
	}
	perLayer(m, w, phases, tr.summarize())
	for k, unit := range diagUnits {
		setMetric(m, k, unit, rep.diag[k])
	}
	return rep, nil
}

// diagUnits lists the diagnostics a traced run also reports as metrics.
var diagUnits = map[string]string{
	"diag.p99_ms":      "ms",
	"diag.p99_samples": "count",
	"host.steal_share": "share",
	"host.calib_ms":    "ms",
}

// perLayer fills the traced run's per-layer metrics. Counters come from
// both timed phases; runtime figures from the untraced one; times from
// the spans of the traced phase and the census.
func perLayer(m map[string]metric, w workload, phases []phaseResult, s summary) {
	base, traced := phases[0], phases[1]
	var ops float64
	var memoHits, memoMiss, subHits, subMiss, rounds, batches, merged uint64
	for _, p := range phases {
		ops += float64(p.ops)
		memoHits += p.after.Hits - p.before.Hits
		memoMiss += p.after.Misses - p.before.Misses
		a, b := p.after.Substrate, p.before.Substrate
		subHits += a.PlannedHits + a.UnplannedHits - b.PlannedHits - b.UnplannedHits
		subMiss += a.PlannedMisses + a.UnplannedMisses - b.PlannedMisses - b.UnplannedMisses
		if p.after.Gang != nil && p.before.Gang != nil {
			rounds += p.after.Gang.Rounds - p.before.Gang.Rounds
			batches += p.after.Gang.Batches - p.before.Gang.Batches
			merged += p.after.Gang.MergedBatches - p.before.Gang.MergedBatches
		}
	}
	setMetric(m, "substrate.misses_per_round", "count", float64(subMiss)/ops)
	setMetric(m, "substrate.hit_share", "share", ratio(subHits, subHits+subMiss))
	setMetric(m, "engine.memo_hit_share", "share", ratio(memoHits, memoHits+memoMiss))
	setMetric(m, "gang.rounds", "count", float64(rounds)/ops)
	setMetric(m, "gang.merged_share", "share", ratio(merged, batches))
	setMetric(m, "telemetry.ticks_per_year", "count", float64(w.ticksPerYear()))

	bops := float64(base.ops)
	setMetric(m, "runtime.allocs_per_op", "count", float64(base.mallocs)/bops)
	setMetric(m, "runtime.bytes_per_op", "B", float64(base.bytes)/bops)
	setMetric(m, "runtime.gc_cycles", "1/s", float64(base.gcs)/base.elapsed.Seconds())
	var pause float64
	if base.gcs > 0 {
		pause = float64(base.pauseNs) / float64(base.gcs) / 1e6
	}
	setMetric(m, "runtime.gc_pause_ms", "ms", pause)
	setMetric(m, "trace.overhead_share", "share", 1-traced.opsPerS/base.opsPerS)

	for _, l := range layerMetrics {
		setMetric(m, l.metric, l.unit, s.layer(l.span, l.full)/l.scale)
	}
	setMetric(m, "engine.hit_us", "us", median(s.hitNs)/1e3)
	setMetric(m, "engine.unattributed_share", "share", 1-s.attributedNs/s.rootNs)
	setMetric(m, "energy.grid_year_allocs", "count", float64(s.gridAllocs))
	setMetric(m, "wire.frame_bytes", "B", s.frameBytes)
	setMetric(m, "json.body_bytes", "B", s.bodyBytes)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// cpuTicks reads the steal and total jiffies of the aggregate cpu line
// of /proc/stat; both are 0 where the file is unavailable.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(data, []byte{'\n'})
	fields := strings.Fields(string(line))
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		// Fields 9 and 10 (guest, guest_nice) are already counted in
		// user and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// processCPU is the user and system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident high-water mark (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

var calibSink uint64

// calibrate times a fixed pure-Go integer loop (median of five) so a
// slow host can be told apart from a slow program.
func calibrate() float64 {
	times := make([]float64, 5)
	for i := range times {
		t0 := time.Now()
		x := uint64(0x9e3779b97f4a7c15)
		for j := 0; j < 20_000_000; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink += x
		times[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return median(times)
}
