package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: thirstyflops
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEngineAssessCold   	    9405	    129478 ns/op	  301550 B/op	      39 allocs/op
BenchmarkFCFS-8             	   13736	     86568.5 ns/op	  197752 B/op	       6 allocs/op
BenchmarkWetBulbStull       	 1000000	       105.2 ns/op
BenchmarkSweepPlanned       	      14	  40482188 ns/op	         7.786 generations/op	19729076 B/op	  133206 allocs/op
PASS
ok  	thirstyflops	13.943s
`

func TestParse(t *testing.T) {
	var echo strings.Builder
	results, err := parse(strings.NewReader(sampleOutput), &echo)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("parsed %d results, want 4", len(results))
	}
	cold := results[0]
	if cold.Key != "thirstyflops/BenchmarkEngineAssessCold" || cold.NsOp != 129478 ||
		cold.BOp != 301550 || cold.AllocsOp != 39 {
		t.Errorf("cold parsed wrong: %+v", cold)
	}
	// The -cpu suffix is stripped so keys match the ledger.
	if results[1].Key != "thirstyflops/BenchmarkFCFS" || results[1].NsOp != 86568.5 {
		t.Errorf("fcfs parsed wrong: %+v", results[1])
	}
	// Lines without -benchmem columns still parse their timing.
	if results[2].AllocsOp != 0 || results[2].NsOp != 105.2 {
		t.Errorf("stull parsed wrong: %+v", results[2])
	}
	// Custom b.ReportMetric columns between ns/op and B/op (the planner
	// benchmarks report generations/op) must not hide the alloc columns.
	if p := results[3]; p.Key != "thirstyflops/BenchmarkSweepPlanned" || p.NsOp != 40482188 ||
		p.BOp != 19729076 || p.AllocsOp != 133206 {
		t.Errorf("planned parsed wrong: %+v", p)
	}
	if !strings.Contains(echo.String(), "PASS") {
		t.Error("input not echoed")
	}
}

func TestParseKeysByPackage(t *testing.T) {
	out := "pkg: thirstyflops/internal/a\nBenchmarkX 10 5 ns/op\n" +
		"pkg: thirstyflops/internal/b\nBenchmarkX-4 10 7 ns/op\n"
	results, err := parse(strings.NewReader(out), &strings.Builder{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].Key != "thirstyflops/internal/a/BenchmarkX" ||
		results[1].Key != "thirstyflops/internal/b/BenchmarkX" {
		t.Errorf("same name in two packages keyed as %+v", results)
	}
}

const coldKey = "thirstyflops/BenchmarkEngineAssessCold"

func ledger() Ledger {
	return Ledger{Benchmarks: map[string]Entry{
		coldKey: {NsOp: 130000, AllocsOp: 39, TimeRatioLimit: 2.0, AllocRatioLimit: 1.2},
	}}
}

func TestCheckPasses(t *testing.T) {
	v := check(ledger(), []Result{
		{Key: coldKey, NsOp: 150000, AllocsOp: 39},
		{Key: "thirstyflops/BenchmarkUnrelated", NsOp: 1},
	})
	if len(v) != 0 {
		t.Errorf("violations on a healthy run: %v", v)
	}
}

func TestCheckCatchesTimeRegression(t *testing.T) {
	v := check(ledger(), []Result{{Key: coldKey, NsOp: 400000, AllocsOp: 39}})
	if len(v) != 1 || !strings.Contains(v[0], "ns/op") {
		t.Errorf("time regression missed: %v", v)
	}
}

func TestCheckCatchesAllocRegression(t *testing.T) {
	v := check(ledger(), []Result{{Key: coldKey, NsOp: 130000, AllocsOp: 80}})
	if len(v) != 1 || !strings.Contains(v[0], "allocs/op") {
		t.Errorf("alloc regression missed: %v", v)
	}
}

func TestCheckCatchesMissingBenchmark(t *testing.T) {
	// The same name under another package is a different benchmark.
	v := check(ledger(), []Result{{Key: "thirstyflops/cmd/x/BenchmarkEngineAssessCold", NsOp: 1}})
	if len(v) != 1 || !strings.Contains(v[0], "missing") {
		t.Errorf("missing benchmark not reported: %v", v)
	}
}

func TestCheckAllowsSmallAbsoluteAllocSlack(t *testing.T) {
	l := Ledger{Benchmarks: map[string]Entry{
		"p/BenchmarkZeroAlloc": {NsOp: 100, AllocsOp: 0, TimeRatioLimit: 6, AllocRatioLimit: 1.5},
	}}
	if v := check(l, []Result{{Key: "p/BenchmarkZeroAlloc", NsOp: 100, AllocsOp: 2}}); len(v) != 0 {
		t.Errorf("2 allocs over a 0 baseline should pass the +2 slack: %v", v)
	}
	if v := check(l, []Result{{Key: "p/BenchmarkZeroAlloc", NsOp: 100, AllocsOp: 3}}); len(v) != 1 {
		t.Errorf("3 allocs over a 0 baseline should fail: %v", v)
	}
}

func TestCheckUsesPerEntryLimits(t *testing.T) {
	l := Ledger{Benchmarks: map[string]Entry{
		"p/BenchmarkTight": {NsOp: 100, AllocsOp: 100, TimeRatioLimit: 6, AllocRatioLimit: 1.35},
		"p/BenchmarkLoose": {NsOp: 100, AllocsOp: 100, TimeRatioLimit: 6, AllocRatioLimit: 2.0},
	}}
	v := check(l, []Result{
		{Key: "p/BenchmarkTight", NsOp: 100, AllocsOp: 180},
		{Key: "p/BenchmarkLoose", NsOp: 100, AllocsOp: 180},
	})
	if len(v) != 1 || !strings.HasPrefix(v[0], "p/BenchmarkTight:") {
		t.Errorf("180 allocs over 100 must fail x1.35 and pass x2.0: %v", v)
	}
}

func TestCheckViolationsSorted(t *testing.T) {
	l := Ledger{Benchmarks: map[string]Entry{}}
	for _, k := range []string{"p/BenchmarkC", "p/BenchmarkA", "q/BenchmarkB", "p/BenchmarkB"} {
		l.Benchmarks[k] = Entry{NsOp: 1, TimeRatioLimit: 6, AllocRatioLimit: 1.5}
	}
	var keys []string
	for _, v := range check(l, nil) {
		keys = append(keys, v[:strings.Index(v, ":")])
	}
	if got, want := strings.Join(keys, " "), "p/BenchmarkA p/BenchmarkB p/BenchmarkC q/BenchmarkB"; got != want {
		t.Errorf("violation order %q, want %q", got, want)
	}
}

func TestGoTestArgsOnePass(t *testing.T) {
	l := Ledger{Benchmarks: map[string]Entry{
		"thirstyflops/BenchmarkB":                {},
		"thirstyflops/BenchmarkA":                {},
		"thirstyflops/internal/store/BenchmarkC": {},
	}}
	got := strings.Join(goTestArgs(l), " ")
	want := "test -run ^$ -bench ^(BenchmarkA|BenchmarkB|BenchmarkC)$ -benchmem -benchtime=500ms -count=1 " +
		"thirstyflops thirstyflops/internal/store"
	if got != want {
		t.Errorf("go %s\nwant go %s", got, want)
	}
}

// TestLedgerNamesExistingBenchmarks pins the committed ledger to the code:
// every key must name a `func BenchmarkX(b *testing.B)` in a _test.go file
// of that package's directory, so renaming a gated benchmark fails the
// test tier instead of only the bench gate.
func TestLedgerNamesExistingBenchmarks(t *testing.T) {
	l, err := loadLedger(filepath.Join("..", "..", ledgerPath))
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Benchmarks) == 0 {
		t.Fatal("ledger gates nothing")
	}
	benches := map[string]map[string]bool{} // import path -> benchmark funcs
	for key, e := range l.Benchmarks {
		if e.NsOp <= 0 || e.TimeRatioLimit <= 0 || e.AllocRatioLimit <= 0 {
			t.Errorf("%s: ns_op and both ratio limits must be positive: %+v", key, e)
		}
		pkg, name := splitKey(key)
		rel, ok := strings.CutPrefix(pkg, "thirstyflops")
		if !ok || (rel != "" && rel[0] != '/') {
			t.Errorf("%s: import path outside module thirstyflops", key)
			continue
		}
		if benches[pkg] == nil {
			benches[pkg] = benchmarkFuncs(t, filepath.Join("..", "..", filepath.FromSlash(rel)))
		}
		if !benches[pkg][name] {
			t.Errorf("%s: no func %s(b *testing.B) in a _test.go file of %s", key, name, pkg)
		}
	}
}

// benchmarkFuncs lists the Benchmark functions declared in dir's tests.
func benchmarkFuncs(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Benchmark") {
				continue
			}
			params := fn.Type.Params.List
			if len(params) == 1 && len(params[0].Names) <= 1 && types.ExprString(params[0].Type) == "*testing.B" {
				out[fn.Name.Name] = true
			}
		}
	}
	return out
}
