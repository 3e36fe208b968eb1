package thirstyflops_test

// One benchmark per table and figure of the paper's evaluation (the
// index is experiments.IDs()), plus micro-benchmarks of the hot
// modeling paths. Each experiment benchmark regenerates the full artifact
// — run `go test -bench=. -benchmem` to both time them and confirm they
// produce output.

import (
	"context"
	"testing"

	"thirstyflops"
	"thirstyflops/internal/core"
	"thirstyflops/internal/energy"
	"thirstyflops/internal/experiments"
	"thirstyflops/internal/jobs"
	"thirstyflops/internal/miniamr"
	"thirstyflops/internal/sched"
	"thirstyflops/internal/weather"
	"thirstyflops/internal/wue"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		out, err := experiments.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Text) == 0 {
			b.Fatal("empty artifact")
		}
	}
}

// --- Tables ---

func BenchmarkTable1Systems(b *testing.B)    { benchExperiment(b, "table1") }
func BenchmarkTable2Parameters(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkTable3Withdrawal(b *testing.B) { benchExperiment(b, "table3") }

// --- Figures ---

func BenchmarkFig1USMaps(b *testing.B)            { benchExperiment(b, "fig1") }
func BenchmarkFig3EmbodiedBreakdown(b *testing.B) { benchExperiment(b, "fig3") }
func BenchmarkFig4RatioHeatmap(b *testing.B)      { benchExperiment(b, "fig4") }
func BenchmarkFig5SourceFactors(b *testing.B)     { benchExperiment(b, "fig5") }
func BenchmarkFig6EWFWUEVariation(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7DirectIndirect(b *testing.B)    { benchExperiment(b, "fig7") }
func BenchmarkFig8AdjustedIntensity(b *testing.B) { benchExperiment(b, "fig8") }
func BenchmarkFig9IndirectWSI(b *testing.B)       { benchExperiment(b, "fig9") }
func BenchmarkFig10CountyWSI(b *testing.B)        { benchExperiment(b, "fig10") }
func BenchmarkFig11EnergyVsWater(b *testing.B)    { benchExperiment(b, "fig11") }
func BenchmarkFig12WaterVsCarbon(b *testing.B)    { benchExperiment(b, "fig12") }
func BenchmarkFig13StartTimeRanking(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFig14NuclearScenarios(b *testing.B) { benchExperiment(b, "fig14") }

// --- Micro-benchmarks of the hot modeling paths ---

func BenchmarkWetBulbStull(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = weather.WetBulb(25, 60)
	}
}

func BenchmarkWeatherYear(b *testing.B) {
	site := weather.OakRidge()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = site.HourlyYear(uint64(i))
	}
}

func BenchmarkGridYear(b *testing.B) {
	region := energy.Italy()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = region.HourlyYear(uint64(i))
	}
}

func BenchmarkUtilizationYear(b *testing.B) {
	demand := jobs.DefaultDemand()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = demand.UtilizationYear(uint64(i))
	}
}

func BenchmarkWUECurveSeries(b *testing.B) {
	curve := wue.DefaultCurve()
	wbs := weather.WetBulbSeries(weather.Kobe().HourlyYear(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = curve.Series(wbs)
	}
}

func BenchmarkAssessYear(b *testing.B) {
	cfg, err := core.ConfigFor("Frontier")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Assess(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScenarioSweep(b *testing.B) {
	cfg, err := core.ConfigFor("Marconi")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.ScenarioSweep(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineLiveChurnReads is live telemetry beside simulated
// reads on one memo: each op ingests one hour, assesses the fresh live
// year and makes 2 simulated reads cycling over a 4-configuration set.
// The memo holds exactly the read set, the live
// configuration's base year and one live year, so every read hits as
// long as a tick replaces the year in its stream and configuration's
// live slot instead of evicting a simulated one. read-misses/op reports
// the reads that missed.
func BenchmarkEngineLiveChurnReads(b *testing.B) {
	const window, readSet, readsPerOp = 336, 4, 2
	stream, err := thirstyflops.NewStream("", 0, window)
	if err != nil {
		b.Fatal(err)
	}
	eng := thirstyflops.NewEngine(thirstyflops.WithCache(readSet+2),
		thirstyflops.WithLiveStreams(thirstyflops.NewStreamRegistry(stream)))
	ctx := context.Background()
	live := thirstyflops.AssessRequest{System: "Frontier", Source: thirstyflops.SourceLive}
	reads := make([]thirstyflops.AssessRequest, readSet)
	years := make([]int, readSet)
	for i := range reads {
		years[i] = 1990 + i
		reads[i] = thirstyflops.AssessRequest{System: "Marconi", Year: &years[i]}
	}
	for _, r := range append(reads, live) {
		if _, err := eng.Assess(ctx, r); err != nil {
			b.Fatal(err)
		}
	}
	misses := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Ingest(thirstyflops.Sample{Hour: i % window, Power: 2.1e7}); err != nil {
			b.Fatal(err)
		}
		res, err := eng.Assess(ctx, live)
		if err != nil {
			b.Fatal(err)
		}
		if res.Cached {
			b.Fatal("a fresh epoch was served from the memo")
		}
		for r := 0; r < readsPerOp; r++ {
			res, err := eng.Assess(ctx, reads[(i*readsPerOp+r)%readSet])
			if err != nil {
				b.Fatal(err)
			}
			if !res.Cached {
				misses++
			}
		}
	}
	b.ReportMetric(float64(misses)/float64(b.N), "read-misses/op")
}

func BenchmarkConfigFingerprint(b *testing.B) {
	cfg, err := core.ConfigFor("Frontier")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cfg.Fingerprint()
	}
}

func BenchmarkMiniAMRStep(b *testing.B) {
	cfg := miniamr.DefaultConfig()
	cfg.Steps = 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mesh, err := miniamr.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		_ = mesh.Run()
	}
}

func BenchmarkEASYBackfill(b *testing.B) {
	trace, err := jobs.GenerateTrace(jobs.DefaultTrace(256), 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.EASYBackfill(trace, 256); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFCFS(b *testing.B) {
	trace, err := jobs.GenerateTrace(jobs.DefaultTrace(256), 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.FCFS(trace, 256); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStartTimeRanking(b *testing.B) {
	cfg, err := core.ConfigFor("Frontier")
	if err != nil {
		b.Fatal(err)
	}
	a, err := cfg.Assess()
	if err != nil {
		b.Fatal(err)
	}
	candidates := []int{0, 4, 8, 12, 16, 20, 24}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.RankStartTimes(0.5, 4, candidates, a.Hourly); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStartTimeRankingFullYear sweeps every feasible start hour of a
// year at 24 h duration — the workload the prefix-sum/sliding-window
// kernels exist for. The seed implementation evaluated this in
// O(candidates × duration); this must stay ≥10x faster (see its
// seed_ns_op in BENCH.json).
func BenchmarkStartTimeRankingFullYear(b *testing.B) {
	cfg, err := core.ConfigFor("Frontier")
	if err != nil {
		b.Fatal(err)
	}
	a, err := cfg.Assess()
	if err != nil {
		b.Fatal(err)
	}
	const dur = 24
	candidates := make([]int, a.Hourly.Len()-dur+1)
	for i := range candidates {
		candidates[i] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.RankStartTimes(0.5, dur, candidates, a.Hourly); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension experiments (Sec. 6 outlook) ---

func BenchmarkExtWater500(b *testing.B)    { benchExperiment(b, "water500") }
func BenchmarkExtWaterCap(b *testing.B)    { benchExperiment(b, "watercap") }
func BenchmarkExtGeoShift(b *testing.B)    { benchExperiment(b, "geoshift") }
func BenchmarkExtSensitivity(b *testing.B) { benchExperiment(b, "sensitivity") }
func BenchmarkExtGreenSched(b *testing.B)  { benchExperiment(b, "greensched") }

func BenchmarkExtUpgrade(b *testing.B) { benchExperiment(b, "upgrade") }
