package jobs

import (
	"encoding/hex"
	"runtime/debug"
	"testing"

	"thirstyflops/internal/fingerprint"
)

// goldenSeeds are the seeds every golden generator digest covers.
var goldenSeeds = []uint64{0, 1, 2, 3, 5, 7, 9, 42, 1 << 40}

// goldenDemand pins the utilization generator bit for bit: per model,
// the SHA-256 over goldenSeeds of every UtilizationYear hour. The
// digests were recorded from the generator that evaluated the queue
// cosine and the allocation-cycle sine per hour, before they were
// tabulated.
var goldenDemand = []struct {
	name   string
	model  DemandModel
	digest string
}{
	{"default", DefaultDemand(), "3bd0306507ddf687b3ec745dfeb59b2b379291f68998b8b6c7d03f6a269c8a26"},
	{"swingy", DemandModel{
		Mean: 0.65, DailySwing: 0.12, WeeklySwing: 0.10,
		CycleSwing: 0.15, NoiseStd: 0.08, Floor: 0.2, Cap: 1,
	}, "12809498a22075daba0d575b82ed328b509be09235bc03c65b66209e052edf82"},
	{"quiet", DemandModel{
		Mean: 0.9, DailySwing: 0.02, CycleSwing: 0.01,
		Floor: 0.5, Cap: 0.95,
	}, "6b68c27802e3bb34f48f84689b29be03024428c89be159445f9386e36246b40f"},
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

func TestGoldenUtilizationYears(t *testing.T) {
	for _, g := range goldenDemand {
		got := digest(func(h *fingerprint.Hasher, seed uint64) {
			for _, u := range g.model.UtilizationYear(seed) {
				h.Float(u)
			}
		})
		if got != g.digest {
			t.Errorf("%s: UtilizationYear digest %s, want %s", g.name, got, g.digest)
		}
	}
}

// TestGeneratorAllocations pins the allocation-free hourly loop: a year
// costs only its output slice. The collector is off while
// measuring: its timing would otherwise add an allocation to some runs.
func TestGeneratorAllocations(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	d := DefaultDemand()
	if n := testing.AllocsPerRun(3, func() { d.UtilizationYear(1) }); n > 1 {
		t.Errorf("UtilizationYear allocates %v times, want 1", n)
	}
}
