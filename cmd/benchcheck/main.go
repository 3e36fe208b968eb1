// Command benchcheck gates benchmark regressions against the committed
// ledger BENCH.json. It runs every gated benchmark in one `go test -bench
// -benchmem` pass, echoes the output, keys each result by the `pkg:`
// header above it and its name, and exits non-zero when a benchmark is
// missing, slowed down, or allocates beyond its entry's ratio limits.
// Time limits are generous (machines differ); allocation counts are
// near-deterministic, so their limits are tight.
//
// Run it from the module root (`make bench` does):
//
//	go run ./cmd/benchcheck
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

const ledgerPath = "BENCH.json"

// Ledger is the committed benchmark record. The file also carries a note,
// per-entry history and a "retired" map; none of them is gated.
type Ledger struct {
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// Entry is one gated benchmark, keyed `<import path>/<Benchmark>`.
type Entry struct {
	NsOp            float64 `json:"ns_op"`
	BOp             float64 `json:"b_op"`
	AllocsOp        float64 `json:"allocs_op"`
	TimeRatioLimit  float64 `json:"time_ratio_limit"`
	AllocRatioLimit float64 `json:"alloc_ratio_limit"`
}

// Result is one parsed benchmark line, keyed like a ledger entry.
type Result struct {
	Key      string
	NsOp     float64
	BOp      float64
	AllocsOp float64
}

// benchLine matches `BenchmarkName-8   123   456.7 ns/op   89 B/op   10 allocs/op`;
// the -benchmem columns are optional in general bench output, and custom
// b.ReportMetric columns (e.g. `7.8 generations/op`) may sit between
// ns/op and the allocation columns.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:(?:\s+[\d.]+ \S+)*?\s+([\d.]+) B/op\s+([\d.]+) allocs/op)?`)

// splitKey splits a ledger key into its import path and benchmark name.
func splitKey(key string) (pkg, name string) {
	i := strings.LastIndex(key, "/")
	return key[:i], key[i+1:]
}

// goTestArgs builds the single `go test` invocation that runs every
// gated benchmark. go test runs the benchmarks of different packages one
// after another, so one pass measures what per-package passes would.
func goTestArgs(l Ledger) []string {
	pkgs, names := map[string]bool{}, map[string]bool{}
	for key := range l.Benchmarks {
		pkg, name := splitKey(key)
		pkgs[pkg], names[name] = true, true
	}
	args := []string{"test", "-run", "^$",
		"-bench", "^(" + strings.Join(sorted(names), "|") + ")$",
		"-benchmem", "-benchtime=500ms", "-count=1"}
	return append(args, sorted(pkgs)...)
}

func sorted[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// parse extracts benchmark results from go test output, echoing every
// line to w so the tool is transparent in CI logs.
func parse(r io.Reader, w io.Writer) ([]Result, error) {
	var out []Result
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(w, line)
		if p, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = p
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		res := Result{Key: pkg + "/" + m[1]}
		res.NsOp, _ = strconv.ParseFloat(m[2], 64)
		if m[3] != "" {
			res.BOp, _ = strconv.ParseFloat(m[3], 64)
			res.AllocsOp, _ = strconv.ParseFloat(m[4], 64)
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// check compares results against the ledger and returns the violations
// in key order.
func check(l Ledger, results []Result) []string {
	byKey := map[string]Result{}
	for _, r := range results {
		byKey[r.Key] = r
	}
	var violations []string
	for _, key := range sorted(l.Benchmarks) {
		rec := l.Benchmarks[key]
		got, ok := byKey[key]
		if !ok {
			violations = append(violations,
				fmt.Sprintf("%s: missing from bench output (renamed or deleted?)", key))
			continue
		}
		if got.NsOp > rec.NsOp*rec.TimeRatioLimit {
			violations = append(violations,
				fmt.Sprintf("%s: %.0f ns/op exceeds baseline %.0f ns/op by more than %.1fx",
					key, got.NsOp, rec.NsOp, rec.TimeRatioLimit))
		}
		// Allocation counts are deterministic: a tight ratio plus a tiny
		// absolute slack for benchmarks with near-zero counts.
		if got.AllocsOp > rec.AllocsOp*rec.AllocRatioLimit+2 {
			violations = append(violations,
				fmt.Sprintf("%s: %.0f allocs/op exceeds baseline %.0f allocs/op (limit %.2fx+2)",
					key, got.AllocsOp, rec.AllocsOp, rec.AllocRatioLimit))
		}
	}
	return violations
}

func loadLedger(path string) (Ledger, error) {
	var l Ledger
	raw, err := os.ReadFile(path)
	if err != nil {
		return l, err
	}
	if err := json.Unmarshal(raw, &l); err != nil {
		return l, fmt.Errorf("benchcheck: bad ledger %s: %w", path, err)
	}
	return l, nil
}

func run(out io.Writer) error {
	l, err := loadLedger(ledgerPath)
	if err != nil {
		return err
	}
	cmd := exec.Command("go", goTestArgs(l)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	results, parseErr := parse(stdout, out)
	io.Copy(io.Discard, stdout) // drain after a parse error so Wait cannot block
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("benchcheck: go test: %w", err)
	}
	if parseErr != nil {
		return parseErr
	}
	if violations := check(l, results); len(violations) > 0 {
		return fmt.Errorf("benchcheck: %d regression(s):\n  %s",
			len(violations), strings.Join(violations, "\n  "))
	}
	fmt.Fprintf(out, "benchcheck: %d benchmarks within %s\n", len(l.Benchmarks), ledgerPath)
	return nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
