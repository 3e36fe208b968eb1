package thirstyflops_test

// Ablation benchmarks: quantify the modeling choices behind the layers
// docs/ARCHITECTURE.md describes by running each variant and reporting
// the resulting metric alongside the timing (b.ReportMetric). Run with:
//
//	go test -bench=Ablation -benchtime=1x

import (
	"testing"

	"thirstyflops/internal/energy"
	"thirstyflops/internal/jobs"
	"thirstyflops/internal/miniamr"
	"thirstyflops/internal/sched"
	"thirstyflops/internal/stats"
	"thirstyflops/internal/weather"
	"thirstyflops/internal/wue"
)

// BenchmarkAblationWUECap compares the saturating WUE curve against the
// uncapped quadratic: the cap bounds peak summer WUE to the tower's design
// evaporation rate (Fig. 6b's 0-12 L/kWh scale).
func BenchmarkAblationWUECap(b *testing.B) {
	wbs := weather.WetBulbSeries(weather.OakRidge().HourlyYear(42))
	for _, variant := range []struct {
		name  string
		curve wue.Curve
	}{
		{"capped", wue.DefaultCurve()},
		{"uncapped", wue.Curve{Floor: 0.05, Cutoff: 2, Coeff: 0.026}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			var maxWUE float64
			for i := 0; i < b.N; i++ {
				maxWUE = stats.Max(variant.curve.SeriesFloat(wbs))
			}
			b.ReportMetric(maxWUE, "maxWUE(L/kWh)")
		})
	}
}

// BenchmarkAblationHydroSeasonality isolates the hydro availability cycle:
// without it, Marconi loses the wide EWF range that drives the paper's
// Fig. 6(a) story.
func BenchmarkAblationHydroSeasonality(b *testing.B) {
	for _, variant := range []struct {
		name   string
		mutate func(*energy.Region)
	}{
		{"seasonal", func(r *energy.Region) {}},
		{"flat", func(r *energy.Region) {
			r.HydroSeasonality = 0
			r.HydroNoise = 0
			r.HydroEvapSummerBoost = 0
		}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			region := energy.Italy()
			variant.mutate(&region)
			var spread float64
			for i := 0; i < b.N; i++ {
				hours := region.HourlyYear(42)
				ewf := make([]float64, len(hours))
				for h, hr := range hours {
					ewf[h] = float64(hr.EWF)
				}
				spread = stats.Max(ewf) - stats.Min(ewf)
			}
			b.ReportMetric(spread, "EWFrange(L/kWh)")
		})
	}
}

// BenchmarkAblationMiniAMRWorkers scales the stencil worker pool.
func BenchmarkAblationMiniAMRWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "w1", 2: "w2", 4: "w4", 8: "w8"}[workers], func(b *testing.B) {
			cfg := miniamr.DefaultConfig()
			cfg.Workers = workers
			cfg.Steps = 8
			for i := 0; i < b.N; i++ {
				mesh, err := miniamr.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				_ = mesh.Run()
			}
		})
	}
}

// BenchmarkAblationSchedulerPolicy compares FCFS against EASY backfilling
// on the same trace and reports the mean wait each policy achieves.
func BenchmarkAblationSchedulerPolicy(b *testing.B) {
	trace, err := jobs.GenerateTrace(jobs.DefaultTrace(128), 42)
	if err != nil {
		b.Fatal(err)
	}
	type policy struct {
		name string
		run  func([]jobs.Job, int) (sched.Result, error)
	}
	for _, p := range []policy{
		{"fcfs", sched.FCFS},
		{"easy", sched.EASYBackfill},
	} {
		b.Run(p.name, func(b *testing.B) {
			var wait float64
			for i := 0; i < b.N; i++ {
				r, err := p.run(trace, 128)
				if err != nil {
					b.Fatal(err)
				}
				wait = r.MeanWait
			}
			b.ReportMetric(wait, "meanWait(h)")
		})
	}
}

// BenchmarkAblationRefineCadence sweeps the miniAMR regrid cadence: more
// frequent regridding tracks the sphere tighter at extra cost.
func BenchmarkAblationRefineCadence(b *testing.B) {
	for _, every := range []int{1, 4, 8} {
		b.Run(map[int]string{1: "every1", 4: "every4", 8: "every8"}[every], func(b *testing.B) {
			cfg := miniamr.DefaultConfig()
			cfg.RefineEvery = every
			var peak float64
			for i := 0; i < b.N; i++ {
				mesh, err := miniamr.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				st := mesh.Run()
				peak = float64(st.MaxBlocks)
			}
			b.ReportMetric(peak, "peakBlocks")
		})
	}
}
