package thirstyflops

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"thirstyflops/internal/core"
	"thirstyflops/internal/fingerprint"
	"thirstyflops/internal/hardware"
	"thirstyflops/internal/wsi"
)

// goldenServedDigest pins what Engine.Assess serves, bit for bit: the
// SHA-256 over every bundled system (Table 1, then outlook) × seeds
// {0, 1, 42, 1<<40} × the plain, +scenarios and +withdrawal request
// shapes of the AssessResult JSON bytes, each request assessed twice
// so both the simulated answer and the memo hit are covered. It was
// recorded before the assessed year began carrying its annual water
// intensities, which holds the memo-hit path to the hourly recompute.
const goldenServedDigest = "715f2ac05f27c1181edc80400473f253ea44e1c8c8312adf9809fa79d3ef5810"

func TestGoldenServedResults(t *testing.T) {
	eng := NewEngine()
	ctx := context.Background()
	h := fingerprint.New()
	defer h.Release()
	systems := append(hardware.Systems(), hardware.OutlookSystems()...)
	for _, sys := range systems {
		for _, seed := range []uint64{0, 1, 42, 1 << 40} {
			seed := seed
			for _, req := range []AssessRequest{
				{System: sys.Name, Seed: &seed},
				{System: sys.Name, Seed: &seed, Scenarios: true},
				{System: sys.Name, Seed: &seed, Withdrawal: true},
			} {
				for pass := 0; pass < 2; pass++ {
					res, err := eng.Assess(ctx, req)
					if err != nil {
						t.Fatalf("%s seed %d: %v", sys.Name, seed, err)
					}
					raw, err := json.Marshal(res)
					if err != nil {
						t.Fatal(err)
					}
					h.Bytes(raw)
				}
			}
			// The memoized simulated year carries its intensities.
			cfg := mustResolve(t, AssessRequest{System: sys.Name, Seed: &seed})
			a, cached, err := eng.annualFor(cfg, subUnplanned)
			if err != nil || !cached {
				t.Fatalf("%s seed %d: memo lookup cached=%v err=%v", sys.Name, seed, cached, err)
			}
			checkCarried(t, a, cfg.Scarcity)
		}
	}
	k := h.Sum()
	if got := hex.EncodeToString(k[:]); got != goldenServedDigest {
		t.Errorf("served-result digest %s, want %s", got, goldenServedDigest)
	}
}

// checkCarried fails unless a carries its annual water intensities and
// they, and the scarcity-adjusted intensity under p, equal the values
// derived from a.Hourly.MeanWaterIntensity, compared bit for bit.
func checkCarried(t *testing.T, a core.Annual, p wsi.Profile) {
	t.Helper()
	if !reflect.ValueOf(a).FieldByName("hasMeans").Bool() {
		t.Errorf("%s: assessed year carries no water intensities", a.System)
	}
	d, i, w := a.Hourly.MeanWaterIntensity()
	gd, gi, gw := a.WaterIntensity()
	for _, pair := range [][2]LPerKWh{
		{gd, d}, {gi, i}, {gw, w}, {a.AdjustedWaterIntensity(p), p.AdjustedIntensity(d, i)},
	} {
		if math.Float64bits(float64(pair[0])) != math.Float64bits(float64(pair[1])) {
			t.Errorf("%s: carried intensity %v, hourly recompute %v", a.System, pair[0], pair[1])
		}
	}
}
