package main

// End-to-end tests of the async job-queue serving mode: the full
// submit -> poll -> paginate -> cancel lifecycle over real HTTP, the way
// a client drives a sweep too large for one round trip.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"thirstyflops"
	"thirstyflops/internal/jobqueue"
)

// intList renders "lo,lo+1,...,hi-1" for building wide JSON templates.
func intList(lo, hi int) string {
	var b strings.Builder
	for i := lo; i < hi; i++ {
		if i > lo {
			b.WriteByte(',')
		}
		fmt.Fprint(&b, i)
	}
	return b.String()
}

// doMethod issues a bodyless request with an explicit method.
func doMethod(t *testing.T, method, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// decode parses a JSON response body into v.
func decode(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// pollJob polls GET /jobs/{id} until the job is terminal.
func pollJob(t *testing.T, base, id string) jobqueue.Snapshot {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp := doMethod(t, http.MethodGet, base+"/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status = %d", resp.StatusCode)
		}
		var snap jobqueue.Snapshot
		decode(t, resp, &snap)
		if snap.Completed < 0 || snap.Completed > snap.Total {
			t.Fatalf("progress out of range: %+v", snap)
		}
		if snap.Status.Terminal() {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck at %+v", id, snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestJobsLifecycleEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t)

	// Submit a cross-product sweep: 2 systems x 2 seeds x 2 years = 8
	// assessments, more than one page at limit=3.
	resp := postJSON(t, ts.URL+"/jobs",
		`{"systems": ["Marconi", "Fugaku"], "seeds": [1, 2], "years": [2023, 2024], "scenarios": true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/jobs/") {
		t.Fatalf("Location = %q", loc)
	}
	var submitted jobqueue.Snapshot
	decode(t, resp, &submitted)
	if submitted.ID == "" || submitted.Total != 8 {
		t.Fatalf("submit snapshot = %+v", submitted)
	}

	snap := pollJob(t, ts.URL, submitted.ID)
	if snap.Status != jobqueue.StatusDone || snap.Completed != 8 {
		t.Fatalf("final snapshot = %+v", snap)
	}

	// Page through the results: 3 + 3 + 2, chained by next_offset.
	var (
		seen   []jobUnit
		offset = 0
	)
	for page := 0; ; page++ {
		resp := doMethod(t, http.MethodGet,
			fmt.Sprintf("%s/jobs/%s/result?offset=%d&limit=3", ts.URL, submitted.ID, offset))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("result page %d status = %d", page, resp.StatusCode)
		}
		var body jobResultBody
		decode(t, resp, &body)
		if body.Total != 8 || body.Status != jobqueue.StatusDone {
			t.Fatalf("result header = %+v", body)
		}
		wantCount := 3
		if offset == 6 {
			wantCount = 2
		}
		if body.Count != wantCount || len(body.Results) != wantCount {
			t.Fatalf("page %d count = %d, want %d", page, body.Count, wantCount)
		}
		seen = append(seen, body.Results...)
		if body.NextOffset == nil {
			break
		}
		if *body.NextOffset != offset+3 {
			t.Fatalf("next_offset = %d, want %d", *body.NextOffset, offset+3)
		}
		offset = *body.NextOffset
	}
	if len(seen) != 8 {
		t.Fatalf("paged through %d units, want 8", len(seen))
	}

	// Units are indexed by expanded position (system-outer order), and
	// every unit of this valid sweep succeeded.
	for i, u := range seen {
		if u.Index != i {
			t.Fatalf("unit %d carries index %d", i, u.Index)
		}
		if u.Error != "" || u.Result == nil {
			t.Fatalf("unit %d failed: %+v", i, u)
		}
		wantSystem := "Marconi"
		if i >= 4 {
			wantSystem = "Fugaku"
		}
		if u.Result.System != wantSystem {
			t.Errorf("unit %d system = %s, want %s", i, u.Result.System, wantSystem)
		}
		if len(u.Result.Scenarios) != 5 {
			t.Errorf("unit %d scenarios = %d, want 5", i, len(u.Result.Scenarios))
		}
	}
	// Spot-check the seed/year expansion: index 5 is Fugaku, seed 1,
	// year 2024 (seeds outer, years inner).
	if u := seen[5]; u.Result.Seed != 1 || u.Result.Year != 2024 {
		t.Errorf("unit 5 = seed %d year %d, want seed 1 year 2024", u.Result.Seed, u.Result.Year)
	}

	// A sweep with a bad unit still completes; the failure is scoped to
	// its unit.
	resp = postJSON(t, ts.URL+"/jobs",
		`{"requests": [{"system": "Marconi"}, {"system": "Atlantis"}]}`)
	var mixed jobqueue.Snapshot
	decode(t, resp, &mixed)
	if snap := pollJob(t, ts.URL, mixed.ID); snap.Status != jobqueue.StatusDone {
		t.Fatalf("mixed job = %+v", snap)
	}
	resp = doMethod(t, http.MethodGet, ts.URL+"/jobs/"+mixed.ID+"/result")
	var mixedBody jobResultBody
	decode(t, resp, &mixedBody)
	if mixedBody.Results[0].Error != "" || mixedBody.Results[0].Result == nil {
		t.Errorf("valid unit failed: %+v", mixedBody.Results[0])
	}
	if mixedBody.Results[1].Error == "" || mixedBody.Results[1].Result != nil {
		t.Errorf("invalid unit did not fail: %+v", mixedBody.Results[1])
	}
}

func TestJobsResultBeforeCompletionConflicts(t *testing.T) {
	ts, _ := newTestServer(t)
	// A wide many-seed sweep is slow enough to observe mid-flight.
	resp := postJSON(t, ts.URL+"/jobs",
		`{"seeds": [11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	var snap jobqueue.Snapshot
	decode(t, resp, &snap)
	resp = doMethod(t, http.MethodGet, ts.URL+"/jobs/"+snap.ID+"/result")
	// Either the job is still running (409) or it already finished
	// (200) on a fast machine; both are valid protocol states.
	if resp.StatusCode != http.StatusConflict && resp.StatusCode != http.StatusOK {
		t.Fatalf("mid-flight result status = %d", resp.StatusCode)
	}
	pollJob(t, ts.URL, snap.ID)
}

func TestJobsCancelEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t)
	// Distinct seeds defeat every cache layer, so each unit pays a full
	// simulation and the job stays alive long enough to cancel.
	var seeds []string
	for s := 100; s < 400; s++ {
		seeds = append(seeds, fmt.Sprint(s))
	}
	resp := postJSON(t, ts.URL+"/jobs", `{"seeds": [`+strings.Join(seeds, ",")+`]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d", resp.StatusCode)
	}
	var snap jobqueue.Snapshot
	decode(t, resp, &snap)

	del := doMethod(t, http.MethodDelete, ts.URL+"/jobs/"+snap.ID)
	if del.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status = %d", del.StatusCode)
	}
	final := pollJob(t, ts.URL, snap.ID)
	// On anything but an implausibly fast machine the cancel lands
	// first; tolerate a photo-finish completion.
	if final.Status != jobqueue.StatusCanceled && final.Status != jobqueue.StatusDone {
		t.Fatalf("post-cancel status = %s", final.Status)
	}
	if final.Status == jobqueue.StatusCanceled {
		// A canceled job keeps answering: the partial result set is
		// served — every submitted unit annotated, units cut short by
		// the cancel carrying its context error — alongside the job's
		// own cancellation error.
		resp := doMethod(t, http.MethodGet, ts.URL+"/jobs/"+snap.ID+"/result?limit=300")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("canceled result status = %d", resp.StatusCode)
		}
		var body jobResultBody
		decode(t, resp, &body)
		if body.Status != jobqueue.StatusCanceled || body.Error == "" {
			t.Fatalf("canceled result = %+v", body)
		}
		if body.Count == 0 {
			t.Fatal("canceled job served no partial results")
		}
		canceled := 0
		for _, u := range body.Results {
			if u.Error != "" {
				canceled++
			}
		}
		if canceled == 0 {
			t.Fatalf("no unit carries the cancellation error (count=%d)", body.Count)
		}
	}
}

func TestJobsValidationAndLimits(t *testing.T) {
	// A tiny queue exercises the unit cap without burning CPU.
	stream, err := thirstyflops.NewStream("", 0, 24)
	if err != nil {
		t.Fatal(err)
	}
	eng := thirstyflops.NewEngine(thirstyflops.WithLiveStreams(thirstyflops.NewStreamRegistry(stream)))
	srv, err := newServer(eng, jobsConfig{Retain: 4, Concurrency: 1, MaxUnits: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.close)
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)

	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"malformed", `{"seeds": "nope"}`, http.StatusBadRequest},
		{"both forms", `{"requests": [{"system": "Marconi"}], "systems": ["Fugaku"]}`, http.StatusBadRequest},
		{"too large", `{"seeds": [1, 2]}`, http.StatusRequestEntityTooLarge}, // 4 systems x 2 seeds = 8 > 4
		// A kilobyte template describing a ~1e9-unit cross-product must
		// be rejected by the pre-expansion sizing, not materialized.
		{"kilobyte bomb", fmt.Sprintf(`{"seeds": [%s], "years": [%s]}`,
			intList(0, 1000), intList(2000, 3000)), http.StatusRequestEntityTooLarge},
		// include_series pins a full-year Series per unit, so it weighs
		// seriesUnitCost against the same budget.
		{"series bomb", `{"requests": [{"system": "Marconi", "include_series": true}]}`,
			http.StatusRequestEntityTooLarge},
		// A body past the byte cap is "too large", not "malformed".
		{"oversized body", `{"requests": [` +
			strings.Repeat(`{"system": "Marconi"},`, (maxJobBytes/22)+1) +
			`{"system": "Marconi"}]}`, http.StatusRequestEntityTooLarge},
	} {
		resp := postJSON(t, ts.URL+"/jobs", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}

	// Unknown ids are 404 on every job route.
	if resp := doMethod(t, http.MethodGet, ts.URL+"/jobs/deadbeef"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("status poll of unknown job = %d", resp.StatusCode)
	}
	if resp := doMethod(t, http.MethodGet, ts.URL+"/jobs/deadbeef/result"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("result poll of unknown job = %d", resp.StatusCode)
	}
	if resp := doMethod(t, http.MethodDelete, ts.URL+"/jobs/deadbeef"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel of unknown job = %d", resp.StatusCode)
	}

	// Wrong methods are rejected by the mux method patterns.
	if resp := doMethod(t, http.MethodGet, ts.URL+"/jobs"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /jobs = %d, want 405", resp.StatusCode)
	}
	if resp := doMethod(t, http.MethodDelete, ts.URL+"/jobs/deadbeef/result"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE result = %d, want 405", resp.StatusCode)
	}

	// Bad pagination parameters.
	done := postJSON(t, ts.URL+"/jobs", `{"systems": ["Marconi"]}`)
	var snap jobqueue.Snapshot
	decode(t, done, &snap)
	pollJob(t, ts.URL, snap.ID)
	for _, q := range []string{"offset=-1", "offset=x", "limit=0", "limit=x"} {
		resp := doMethod(t, http.MethodGet, ts.URL+"/jobs/"+snap.ID+"/result?"+q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestJobsRetentionEvictsOldest(t *testing.T) {
	stream, err := thirstyflops.NewStream("", 0, 24)
	if err != nil {
		t.Fatal(err)
	}
	eng := thirstyflops.NewEngine(thirstyflops.WithLiveStreams(thirstyflops.NewStreamRegistry(stream)))
	srv, err := newServer(eng, jobsConfig{Retain: 2, Concurrency: 2, MaxUnits: 100})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.close)
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)

	var ids []string
	for i := 0; i < 3; i++ {
		resp := postJSON(t, ts.URL+"/jobs", `{"systems": ["Marconi"]}`)
		var snap jobqueue.Snapshot
		decode(t, resp, &snap)
		ids = append(ids, snap.ID)
	}
	// Retention holds 2: the first job has been evicted.
	if resp := doMethod(t, http.MethodGet, ts.URL+"/jobs/"+ids[0]); resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted job poll = %d, want 404", resp.StatusCode)
	}
	for _, id := range ids[1:] {
		if resp := doMethod(t, http.MethodGet, ts.URL+"/jobs/"+id); resp.StatusCode != http.StatusOK {
			t.Errorf("retained job %s poll = %d", id, resp.StatusCode)
		}
		pollJob(t, ts.URL, id)
	}
}

func TestJobsDisabled(t *testing.T) {
	eng := thirstyflops.NewEngine()
	srv, err := newServer(eng, jobsConfig{Retain: 0})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.mux())
	t.Cleanup(ts.Close)
	if resp := postJSON(t, ts.URL+"/jobs", `{}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("disabled submit = %d, want 503", resp.StatusCode)
	}
	if resp := doMethod(t, http.MethodGet, ts.URL+"/jobs/x"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("disabled poll = %d, want 503", resp.StatusCode)
	}
}

// TestHealthzReportsJobs asserts /healthz carries the queue gauge and
// the planner's substrate split once a job has run.
func TestHealthzReportsJobs(t *testing.T) {
	ts, _ := newTestServer(t)
	resp := postJSON(t, ts.URL+"/jobs", `{"systems": ["Marconi", "Fugaku"], "years": [2023, 2024, 2025]}`)
	var snap jobqueue.Snapshot
	decode(t, resp, &snap)
	pollJob(t, ts.URL, snap.ID)

	var health healthBody
	decode(t, doMethod(t, http.MethodGet, ts.URL+"/healthz"), &health)
	if health.Jobs == nil || health.Jobs.Retained != 1 {
		t.Fatalf("health.Jobs = %+v", health.Jobs)
	}
	sub := health.Cache.Substrate
	// 2 systems x 3 years planned through the engine: years share their
	// system's substrate, so planned hits must outnumber planned misses.
	if sub.PlannedHits <= sub.PlannedMisses {
		t.Errorf("planned substrate split = %d hits / %d misses; planner should reuse years across the sweep",
			sub.PlannedHits, sub.PlannedMisses)
	}
}
