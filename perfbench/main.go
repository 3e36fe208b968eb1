// Command perfbench is the ThirstyFLOPS benchmark. It builds an
// Engine the way thirstyflopsd does with its default flags, drives one
// workload in-process for a fixed time, checks the program's outputs,
// and prints one JSON result line as the last line of standard output.
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run splits its time between an untraced and a traced
// phase, replays each layer beside the calls it makes into the program,
// writes the recorded spans under .bench_build/spans, and reports the
// per-layer metrics. README.md lists the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"thirstyflops"
)

// Engine settings restated from cmd/thirstyflopsd's default flags
// (package main cannot be imported): -cache 256, -gang-window 2ms,
// -workers 0 (GOMAXPROCS) and, for live serving, one -live-window 336
// stream per system.
const (
	daemonCache      = 256
	daemonGangWindow = 2 * time.Millisecond
	daemonLiveWindow = 336
)

// setupReps is how many times a run builds its state from a cold
// substrate layer; setup_s is the median, and the last build is timed.
const setupReps = 5

// newEngine builds an Engine with the daemon's defaults. streams is nil
// for workloads that never ask for source=live.
func newEngine(streams *thirstyflops.StreamRegistry) *thirstyflops.Engine {
	opts := []thirstyflops.Option{
		thirstyflops.WithCache(daemonCache),
		thirstyflops.WithGangWindow(daemonGangWindow),
	}
	if streams != nil {
		opts = append(opts, thirstyflops.WithLiveStreams(streams))
	}
	return thirstyflops.NewEngine(opts...)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line perfbench prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: sweep-cold, serve-hot or live-churn")
		seed    = flag.Uint64("seed", 1, "input seed; the same seed generates the same inputs")
		seconds = flag.Float64("seconds", 10, "length of the measured phase in seconds")
		trace   = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	w, err := newWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	opts := runOptions{seed: *seed, duration: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1}
	if opts.traced {
		opts.spansPath = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.csv", *name, *seed))
	}
	rep, err := run(w, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	// Diagnostics ride on their own line: they explain a run but are
	// not metrics the result line carries.
	diag, _ := json.Marshal(rep.diag)
	fmt.Printf("diagnostics %s %s\n", *name, diag)
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// newWorkload maps a workload name to its implementation.
func newWorkload(name string) (workload, error) {
	switch name {
	case "sweep-cold":
		return &sweepCold{}, nil
	case "serve-hot":
		return &serveHot{}, nil
	case "live-churn":
		return &liveChurn{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want sweep-cold, serve-hot or live-churn)", name)
}

// setMetric stores a metric, replacing a non-finite value (an empty
// sample) with 0 so the result line stays valid JSON.
func setMetric(m map[string]metric, name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// quantile is the linearly interpolated q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median sorts xs in place and returns its median.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}
