package main

// End-to-end tests of the gang serving path: duplicate-unit dedup at
// /jobs expansion, and the /healthz gang block fed by concurrent
// overlapping job submissions through the shared fleet-wide scheduler.

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"thirstyflops"
	"thirstyflops/internal/jobqueue"
)

// newGangTestServer is newTestServer with a generous gang merge window,
// so concurrently submitted jobs reliably share one round.
func newGangTestServer(t *testing.T) (*httptest.Server, *thirstyflops.Engine) {
	t.Helper()
	eng := thirstyflops.NewEngine(thirstyflops.WithGangWindow(250 * time.Millisecond))
	h, err := newMux(eng)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts, eng
}

// TestJobsDeduplicatesCrossProduct is the duplicate-unit regression: a
// template repeating system names (and seeds) must not multiply
// simulated units or burn the -job-max-units budget — duplicates
// collapse at expansion and the count is attributed in every status
// response.
func TestJobsDeduplicatesCrossProduct(t *testing.T) {
	ts, _ := newTestServer(t)

	// 3x Marconi + 2x Fugaku systems, duplicated seed: a naive expansion
	// is 5 systems x 3 seeds x 1 year = 15 units; the real work is
	// 2 x 2 x 1 = 4.
	resp := postJSON(t, ts.URL+"/jobs",
		`{"systems": ["Marconi", "Marconi", "Fugaku", "Marconi", "Fugaku"], "seeds": [1, 1, 2], "years": [2024]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	var submitted jobqueue.Snapshot
	decode(t, resp, &submitted)
	if submitted.Total != 4 {
		t.Fatalf("deduped total = %d, want 4 (5x3 template had 11 duplicate units)", submitted.Total)
	}
	if submitted.DuplicatesCollapsed != 11 {
		t.Fatalf("duplicates_collapsed = %d, want 11", submitted.DuplicatesCollapsed)
	}

	snap := pollJob(t, ts.URL, submitted.ID)
	if snap.Status != jobqueue.StatusDone || snap.Completed != 4 {
		t.Fatalf("final snapshot = %+v", snap)
	}
	if snap.DuplicatesCollapsed != 11 {
		t.Fatalf("attribution lost after completion: %+v", snap)
	}

	// Distinct units: every (system, seed) pair appears exactly once.
	resp = doMethod(t, http.MethodGet, ts.URL+"/jobs/"+submitted.ID+"/result")
	var body jobResultBody
	decode(t, resp, &body)
	seen := map[[2]any]bool{}
	for _, u := range body.Results {
		if u.Result == nil {
			t.Fatalf("unit %d failed: %s", u.Index, u.Error)
		}
		key := [2]any{u.Result.System, u.Result.Seed}
		if seen[key] {
			t.Fatalf("duplicate unit survived dedup: %v", key)
		}
		seen[key] = true
	}
	if len(seen) != 4 {
		t.Fatalf("got %d distinct units, want 4", len(seen))
	}
}

// TestJobsDedupUnlocksUnitCap: a template that only fits under the unit
// cap after dedup must be admitted — the duplicates were never going to
// be real work.
func TestJobsDedupUnlocksUnitCap(t *testing.T) {
	eng := thirstyflops.NewEngine()
	s, err := newServer(eng, jobsConfig{Retain: 4, Concurrency: 1, MaxUnits: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler(hardenConfig{}))
	t.Cleanup(ts.Close)

	// Naively 16 units (4 systems x 2 seeds x 2 years), four times the
	// cap; deduped it is exactly 2 (2 x 1 x 1).
	resp := postJSON(t, ts.URL+"/jobs",
		`{"systems": ["Marconi", "Fugaku", "Marconi", "Fugaku"], "seeds": [3, 3], "years": [2024, 2024]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("deduped submission rejected: status = %d", resp.StatusCode)
	}
	var submitted jobqueue.Snapshot
	decode(t, resp, &submitted)
	if submitted.Total != 2 || submitted.DuplicatesCollapsed != 14 {
		t.Fatalf("snapshot = %+v, want total 2 with 14 collapsed", submitted)
	}

	// An explicit request list is never deduplicated: indices are the
	// client's contract.
	resp = postJSON(t, ts.URL+"/jobs",
		`{"requests": [{"system": "Marconi"}, {"system": "Marconi"}]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("explicit-list submit status = %d", resp.StatusCode)
	}
	var explicit jobqueue.Snapshot
	decode(t, resp, &explicit)
	if explicit.Total != 2 || explicit.DuplicatesCollapsed != 0 {
		t.Fatalf("explicit list was deduplicated: %+v", explicit)
	}
}

// TestHealthzGangBlock: concurrent overlapping /jobs batches flow
// through the shared scheduler, and /healthz reports the merge in its
// gang block — merged batches, co-scheduled units, and cross-job
// substrate hits all non-zero.
func TestHealthzGangBlock(t *testing.T) {
	ts, _ := newGangTestServer(t)

	// Fire overlapping submissions concurrently so they land in one
	// merge window.
	const jobs = 3
	ids := make([]string, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postJSON(t, ts.URL+"/jobs",
				`{"systems": ["Marconi", "Fugaku"], "seeds": [41], "years": [2027, 2028]}`)
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("submit status = %d", resp.StatusCode)
				return
			}
			var snap jobqueue.Snapshot
			decode(t, resp, &snap)
			ids[i] = snap.ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		if id == "" {
			t.Fatal("a submission failed")
		}
		if snap := pollJob(t, ts.URL, id); snap.Status != jobqueue.StatusDone {
			t.Fatalf("job %s: %+v", id, snap)
		}
	}

	resp := doMethod(t, http.MethodGet, ts.URL+"/healthz")
	var body struct {
		Gang  *gangHealth `json:"gang"`
		Cache struct {
			Substrate struct {
				CrossJobHits uint64 `json:"cross_job_hits"`
			} `json:"substrate"`
		} `json:"cache"`
	}
	decode(t, resp, &body)
	if body.Gang == nil {
		t.Fatal("/healthz has no gang block with -gang-window set")
	}
	// The default job concurrency is 2, so at least two of the three
	// jobs executed concurrently and merged.
	if body.Gang.MergedBatches < 2 {
		t.Errorf("merged_batches = %d, want >= 2", body.Gang.MergedBatches)
	}
	if body.Gang.CoscheduledUnits == 0 || body.Gang.CrossJobUnits == 0 {
		t.Errorf("no co-scheduling recorded: %+v", body.Gang)
	}
	if body.Gang.CrossJobSubstrateHits == 0 {
		t.Error("cross_job_substrate_hits = 0; identical concurrent jobs shared nothing")
	}
	if body.Gang.CrossJobSubstrateHits != body.Cache.Substrate.CrossJobHits {
		t.Errorf("gang block hits %d != cache substrate cross_job_hits %d",
			body.Gang.CrossJobSubstrateHits, body.Cache.Substrate.CrossJobHits)
	}

	// A zero-window server still reports the block: every batch runs
	// through the scheduler, just never merged.
	plain, _ := newTestServer(t)
	resp = doMethod(t, http.MethodGet, plain.URL+"/healthz")
	var zero struct {
		Gang *gangHealth `json:"gang"`
	}
	decode(t, resp, &zero)
	if zero.Gang == nil {
		t.Fatal("/healthz has no gang block under a zero gang window")
	}
	if zero.Gang.WindowNs != 0 || zero.Gang.MergedBatches != 0 {
		t.Errorf("zero-window gang block = %+v; want window_ns 0 and merged_batches 0", zero.Gang)
	}
}
