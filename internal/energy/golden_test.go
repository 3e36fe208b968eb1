package energy

import (
	"encoding/hex"
	"math"
	"runtime/debug"
	"testing"

	"thirstyflops/internal/fingerprint"
	"thirstyflops/internal/units"
)

// goldenSeeds are the seeds every golden generator digest covers.
var goldenSeeds = []uint64{0, 1, 2, 3, 5, 7, 9, 42, 1 << 40}

// goldenGrid pins the grid generator bit for bit. Per region, year is
// the SHA-256 over goldenSeeds of every HourlyYear hour's EWF, carbon
// intensity and per-source shares (in AllSources order); signals is the
// same over the EWF and carbon columns alone, as Signals returns them.
// The digests were recorded from the map-based generator the
// fixed-array one replaced, so they hold it to the old arithmetic.
var goldenGrid = map[string]struct{ year, signals string }{
	"Arizona": {
		year:    "601f2259409625b19f32021884b466ff126d77f0941864a6973b0598a40cdcfc",
		signals: "8a9c0e635c3a73d8ec4ef97dc14648c4a93215c0b22de576f2f486f1a0a8df4c",
	},
	"California": {
		year:    "9bb7ba8a22d3e290c689a7902ecba28930b08c7ab3b3d953f7e4ee8034dfc956",
		signals: "dda5201951e4eab134f2efc4979906f2d38fd3813982cd01bfc4f23c66712c50",
	},
	"Illinois": {
		year:    "8ed262f1ba5f8a1638b03bdd7b4d2af3580c06b38e41f67cda1a43218363d49c",
		signals: "f8090911fd481ba380695d8e771a917513c7d35eea897ba6bf077abe7b646e73",
	},
	"Italy": {
		year:    "a6caeda20de1f8c38d040c7b0ae43c88eaab1fb32ac9a7b261ace9ed3a29ed20",
		signals: "b4aaa32df7e2a75c21aab7b383005993bfacc5ff9a7b9ebcd71d7804c72d1e2e",
	},
	"Japan": {
		year:    "12e070b4a248272d10e6314f7baf685011074e853dbdb15d831f420d39d13e57",
		signals: "74bd1c2425cdda747f0a450d84607c79e2dd552ef601415800b66321e7e19018",
	},
	"Pacific Northwest": {
		year:    "2f852f621a68e7cb57d12561dc1faff4ea9ea4967c25997d84e970966116f00e",
		signals: "67ce0047a64f5ce16eaebb9a02ba4452d3ac9619a6209fe4e1461a1deef55407",
	},
	"Tennessee": {
		year:    "0d2fe2c4bbd58cf355976e6d3f6d27bfa1d4b80adf1fd6e69a19dfaf368b1fc1",
		signals: "67fd51a9baa1a2cf369fef584485386917f17d67ab50ee32d65d205da70ceb69",
	},
	"Texas": {
		year:    "f311099b40ee6eccf99de458e8800cb0faa1c847fc7f294b17477c5a30303db5",
		signals: "37b5cd87d615796fc81be9fc813a5b573abc9fbfb2057bddd13db7d0bca028d1",
	},
}

// digest hashes what each writes for every golden seed, in order.
func digest(each func(h *fingerprint.Hasher, seed uint64)) string {
	h := fingerprint.New()
	defer h.Release()
	for _, seed := range goldenSeeds {
		h.Uint64(seed)
		each(h, seed)
	}
	k := h.Sum()
	return hex.EncodeToString(k[:])
}

func TestGoldenGridYears(t *testing.T) {
	regions := AllRegions()
	if len(regions) != len(goldenGrid) {
		t.Fatalf("%d regions, %d golden digests", len(regions), len(goldenGrid))
	}
	for name, r := range regions {
		want, ok := goldenGrid[name]
		if !ok {
			t.Errorf("%s: no golden digest", name)
			continue
		}
		year := digest(func(h *fingerprint.Hasher, seed uint64) {
			for _, hr := range r.HourlyYear(seed) {
				h.Float(float64(hr.EWF))
				h.Float(float64(hr.Carbon))
				for _, s := range AllSources() {
					h.Float(hr.Mix.Share(s))
				}
			}
		})
		if year != want.year {
			t.Errorf("%s: HourlyYear digest %s, want %s", name, year, want.year)
		}
		signals := digest(func(h *fingerprint.Hasher, seed uint64) {
			ewf, carbon := r.Signals(seed)
			for i := range ewf {
				h.Float(float64(ewf[i]))
				h.Float(float64(carbon[i]))
			}
		})
		if signals != want.signals {
			t.Errorf("%s: Signals digest %s, want %s", name, signals, want.signals)
		}
	}
}

// TestActiveSourceSumsMatchAllSources checks the hourly loop's skip of
// sources a region never dispatches: every hour's carbon intensity, and
// its EWF where no evaporation boost applies, must equal the weighted
// sum over every source of that hour's mix, bit for bit. Texas carries
// non-finite factors on sources it never dispatches, whose 0 shares
// must still turn the sums into NaN.
func TestActiveSourceSumsMatchAllSources(t *testing.T) {
	odd := Texas()
	odd.EWFOverrides = map[Source]units.LPerKWh{Oil: units.LPerKWh(math.Inf(1))}
	odd.CarbonOverrides = map[Source]units.GCO2PerKWh{Hydro: units.GCO2PerKWh(math.NaN())}
	regions := []Region{odd}
	for _, r := range AllRegions() {
		regions = append(regions, r)
	}
	for _, r := range regions {
		ewfF := factors(Source.EWF, r.EWFOverrides)
		carbonF := factors(Source.CarbonIntensity, r.CarbonOverrides)
		for _, hr := range r.HourlyYear(7) {
			if want := hr.Mix.weigh(&carbonF, sourceOrder[:]); math.Float64bits(float64(hr.Carbon)) != math.Float64bits(want) {
				t.Fatalf("%s hour %d: carbon %v, all-source sum %v", r.Name, hr.Index, hr.Carbon, want)
			}
			if r.HydroEvapSummerBoost != 0 && hr.Mix[Hydro] != 0 {
				continue
			}
			if want := hr.Mix.weigh(&ewfF, sourceOrder[:]); math.Float64bits(float64(hr.EWF)) != math.Float64bits(want) {
				t.Fatalf("%s hour %d: EWF %v, all-source sum %v", r.Name, hr.Index, hr.EWF, want)
			}
		}
	}
}

// TestGeneratorAllocations pins the allocation-free hourly loop: a year
// costs only its output slices. The collector is off while
// measuring: its timing would otherwise add an allocation to some runs.
func TestGeneratorAllocations(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	r := Italy()
	if n := testing.AllocsPerRun(3, func() { r.HourlyYear(1) }); n > 1 {
		t.Errorf("HourlyYear allocates %v times, want 1", n)
	}
	if n := testing.AllocsPerRun(3, func() { r.Signals(1) }); n > 2 {
		t.Errorf("Signals allocates %v times, want 2", n)
	}
}
