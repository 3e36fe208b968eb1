package weather

import (
	"encoding/hex"
	"runtime/debug"
	"testing"

	"thirstyflops/internal/fingerprint"
)

// goldenSeeds are the seeds every golden generator digest covers.
var goldenSeeds = []uint64{0, 1, 2, 3, 5, 7, 9, 42, 1 << 40}

// goldenWeather pins the weather generator bit for bit. Per site, year
// is the SHA-256 over goldenSeeds of every HourlyYear sample's
// temperature, relative humidity and wet-bulb temperature; wetBulb is
// the same over the wet-bulb column alone, as WetBulbYear returns it.
// The digests were recorded from the generator that evaluated the
// seasonal and diurnal cosines per use, before they were shared and
// tabulated.
var goldenWeather = map[string]struct{ year, wetBulb string }{
	"Bologna": {
		year:    "55a0b7dcf5dd7d9ad91b8e8d793560dfeb4c79b8ce6005c875c203720fdf01aa",
		wetBulb: "ed41f0748a748fe414e8022fcef42ddbbf250d77527282a41d56bdf20ea52e9f",
	},
	"Kobe": {
		year:    "668f1a44ec0c0dcd3be700e1acb5c60a81316c4dd3bbf0e5266607879d724ae3",
		wetBulb: "c95f5d61f7faa79c6e07ec5303fa82a6ef3add7efe4afe3b0fc87978ed6cfbe7",
	},
	"Lemont": {
		year:    "748df2efffb8946afdaae597a9bb39f1e1ee8ccfe412befd0deb02ec25952110",
		wetBulb: "fed3c9a488b2fce05ee9e66494d491beba2b6543ac7dae7098ab74d91232c68c",
	},
	"Livermore": {
		year:    "c85a193384c932d214fed3345d70024a5df983852df844047b88f40728ca92b0",
		wetBulb: "f761e84a05e69c0466ac34d0c89d8b308eb6c42e2cfb1564cb601c9317245c22",
	},
	"Oak Ridge": {
		year:    "7e029195e91ba58211a4908ed6dd94fede1b7845c6bd0e7865473510c4088cc4",
		wetBulb: "04e29e58ac6f93829e656bbc5664b963ab6ac0c0795465bac92d7cf194988797",
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

func TestGoldenWeatherYears(t *testing.T) {
	sites := AllSites()
	if len(sites) != len(goldenWeather) {
		t.Fatalf("%d sites, %d golden digests", len(sites), len(goldenWeather))
	}
	for name, s := range sites {
		want, ok := goldenWeather[name]
		if !ok {
			t.Errorf("%s: no golden digest", name)
			continue
		}
		year := digest(func(h *fingerprint.Hasher, seed uint64) {
			for _, smp := range s.HourlyYear(seed) {
				h.Float(float64(smp.Temp))
				h.Float(float64(smp.RH))
				h.Float(float64(smp.WetBulb))
			}
		})
		if year != want.year {
			t.Errorf("%s: HourlyYear digest %s, want %s", name, year, want.year)
		}
		wetBulb := digest(func(h *fingerprint.Hasher, seed uint64) {
			for _, wb := range s.WetBulbYear(seed) {
				h.Float(float64(wb))
			}
		})
		if wetBulb != want.wetBulb {
			t.Errorf("%s: WetBulbYear digest %s, want %s", name, wetBulb, want.wetBulb)
		}
	}
}

// TestGeneratorAllocations pins the allocation-free hourly loop: a year
// costs only its output slice. The collector is off while
// measuring: its timing would otherwise add an allocation to some runs.
func TestGeneratorAllocations(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := Kobe()
	if n := testing.AllocsPerRun(3, func() { s.HourlyYear(1) }); n > 1 {
		t.Errorf("HourlyYear allocates %v times, want 1", n)
	}
	if n := testing.AllocsPerRun(3, func() { s.WetBulbYear(1) }); n > 1 {
		t.Errorf("WetBulbYear allocates %v times, want 1", n)
	}
}
