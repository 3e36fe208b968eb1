package main

import (
	"testing"
	"time"
)

// workloads are the benchmark's workload names.
var workloads = []string{"sweep-cold", "serve-hot", "live-churn"}

// runShort runs a workload with one second per timed phase. The counts
// the tests check are per operation or fixed by set-up, so a short run
// gives the same figures as a long one.
func runShort(t *testing.T, name string, seed uint64, traced bool) report {
	t.Helper()
	w, err := newWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	d := time.Second
	if traced {
		d *= 2
	}
	rep, err := run(w, runOptions{seed: seed, duration: d, traced: traced})
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if !rep.result.Correct || rep.result.Failed != 0 {
		t.Fatalf("%s seed %d: correct=%v failed=%d of %d", name, seed, rep.result.Correct, rep.result.Failed, rep.result.Attempted)
	}
	return rep
}

// TestCountsRepeat pins the counts later performance claims may rest on:
// two runs with the same seed must report them identically. gang.rounds
// and gang.merged_share are left out: whether both submitters of a round
// reach the 2 ms gang window together is up to the scheduler.
func TestCountsRepeat(t *testing.T) {
	counts := []string{
		"substrate.misses_per_round", "wire.frame_bytes", "json.body_bytes", "telemetry.ticks_per_year",
	}
	want := map[string]map[string]float64{
		"sweep-cold": {"substrate.misses_per_round": 78, "engine.memo_hit_share": 0.25},
		"serve-hot":  {"substrate.misses_per_round": 0, "engine.memo_hit_share": 1},
		"live-churn": {"substrate.misses_per_round": 0, "telemetry.ticks_per_year": 35040},
	}
	for _, name := range workloads {
		t.Run(name, func(t *testing.T) {
			a := runShort(t, name, 7, true).result.Metrics
			b := runShort(t, name, 7, true).result.Metrics
			check := counts
			if name != "live-churn" {
				// Live reads race the other client's inserts for memo
				// slots; the other workloads' hit counts are fixed.
				check = append(check, "engine.memo_hit_share")
			}
			for _, k := range check {
				if a[k].Value != b[k].Value {
					t.Errorf("%s: %v then %v", k, a[k].Value, b[k].Value)
				}
			}
			for k, v := range want[name] {
				if a[k].Value != v {
					t.Errorf("%s = %v, want %v", k, a[k].Value, v)
				}
			}
			for _, l := range layerMetrics {
				if _, ok := a[l.metric]; !ok {
					t.Errorf("traced run reports no %s", l.metric)
				}
			}
		})
	}
}

// TestHeldOutSeed runs every workload on the default seed and on a seed
// not used while the benchmark was written; every check must pass.
func TestHeldOutSeed(t *testing.T) {
	for _, name := range workloads {
		for _, seed := range []uint64{1, 982451653} {
			rep := runShort(t, name, seed, false)
			for _, k := range []string{"setup_s", "ops_per_s", "p50_ms", "p90_ms", "rss_peak_mb"} {
				if rep.result.Metrics[k].Value <= 0 {
					t.Errorf("%s seed %d: %s = %v", name, seed, k, rep.result.Metrics[k].Value)
				}
			}
		}
	}
}
