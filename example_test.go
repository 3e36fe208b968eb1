package thirstyflops_test

import (
	"context"
	"fmt"

	"thirstyflops"
)

// ExampleEngine_Sweep runs the Fig. 14 energy-sourcing comparison
// through the Engine. The batch executes via the substrate-aware
// planner: requests sharing generator years run consecutively, and the
// planned lookups show up in CacheStats.Substrate.
func ExampleEngine_Sweep() {
	eng := thirstyflops.NewEngine(thirstyflops.WithWorkers(2))
	res, err := eng.Sweep(context.Background(), thirstyflops.SweepRequest{
		Systems: []string{"Marconi", "Fugaku"},
	})
	if err != nil {
		panic(err)
	}
	for _, s := range res.Systems {
		fmt.Printf("%s: %d scenarios\n", s.System, len(s.Scenarios))
	}
	sub := eng.CacheStats().Substrate
	fmt.Println("scheduled by the planner:", sub.PlannedHits+sub.PlannedMisses > 0)
	// Output:
	// Marconi: 5 scenarios
	// Fugaku: 5 scenarios
	// scheduled by the planner: true
}

// ExampleEngine_Ingest feeds one day of observed power into a live
// telemetry stream and assesses against it: the observed window is
// spliced over the simulated year, and the result's provenance records
// exactly which stream state it saw (the epoch advances with every
// accepted sample, so a stale cached answer is unreachable).
func ExampleEngine_Ingest() {
	stream, err := thirstyflops.NewStream("Frontier", 2023, 168)
	if err != nil {
		panic(err)
	}
	eng := thirstyflops.NewEngine(thirstyflops.WithLiveStreams(thirstyflops.NewStreamRegistry(stream)))

	samples := make([]thirstyflops.Sample, 24)
	for h := range samples {
		samples[h] = thirstyflops.Sample{System: "Frontier", Hour: h, Power: 2.15e7}
	}
	accepted, err := eng.Ingest(samples...)
	if err != nil {
		panic(err)
	}

	res, err := eng.Assess(context.Background(), thirstyflops.AssessRequest{
		System: "Frontier",
		Source: thirstyflops.SourceLive,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("accepted %d hours; live epoch %d covers hours [%d, %d)\n",
		accepted, res.Live.Epoch, res.Live.WindowLo, res.Live.WindowHi)
	// Output: accepted 24 hours; live epoch 24 covers hours [0, 24)
}

// ExampleSystemConfig shows the minimal assessment flow.
func ExampleSystemConfig() {
	cfg, err := thirstyflops.SystemConfig("Polaris")
	if err != nil {
		panic(err)
	}
	fmt.Println(cfg.System.Name, "at", cfg.Site.Name, "PUE", float64(cfg.System.PUE))
	// Output: Polaris at Lemont PUE 1.65
}

// ExampleWetBulb evaluates the Stull wet-bulb approximation the WUE model
// is built on.
func ExampleWetBulb() {
	wb := thirstyflops.WetBulb(20, 50)
	fmt.Printf("%.1f°C\n", float64(wb))
	// Output: 13.7°C
}

// ExampleComputeWithdrawal derives gross withdrawal from a consumption
// figure using the Table 3 parameters.
func ExampleComputeWithdrawal() {
	params := thirstyflops.WithdrawalParams{
		ActualDischarge: 1000,
		OutfallFactor:   1.0,
		PollutantHazard: 1.0,
		ReuseRate:       0.25,
		PotableFraction: 0.5,
		PotableScarcity: 0.8, NonPotableScarcity: 0.2,
	}
	w, err := thirstyflops.ComputeWithdrawal(500, params)
	if err != nil {
		panic(err)
	}
	fmt.Printf("gross %.0f L, scarcity-weighted %.0f L\n", float64(w.Gross), float64(w.ScarcityWeighted))
	// Output: gross 1250 L, scarcity-weighted 625 L
}

// ExampleRankStartTimes scores candidate start hours of a fixed-energy
// job against intensity curves.
func ExampleRankStartTimes() {
	wi := []thirstyflops.LPerKWh{1, 5, 5, 5}
	ci := []thirstyflops.GCO2PerKWh{500, 500, 100, 500}
	s, err := thirstyflops.SeriesFromIntensities(1, wi, make([]thirstyflops.LPerKWh, len(wi)), ci)
	if err != nil {
		panic(err)
	}
	opts, err := thirstyflops.RankStartTimes(10, 1, []int{0, 2}, s)
	if err != nil {
		panic(err)
	}
	for _, o := range opts {
		fmt.Printf("hour %d: water rank %d, carbon rank %d\n", o.Hour, o.WaterRank, o.CarbonRank)
	}
	fmt.Println("disagree:", thirstyflops.RankingsDisagree(opts))
	// Output:
	// hour 0: water rank 1, carbon rank 2
	// hour 2: water rank 2, carbon rank 1
	// disagree: true
}

// ExampleMix_EWF computes the energy water factor of a custom mix.
func ExampleMix_EWF() {
	mix := thirstyflops.Mix{
		thirstyflops.Hydro: 0.5,
		thirstyflops.Wind:  0.5,
	}
	fmt.Printf("%.3f L/kWh\n", float64(mix.EWF(nil)))
	// Output: 8.005 L/kWh
}
