package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"thirstyflops"
)

// newTestServer serves the full daemon mux, live stream attached, the
// way main() wires it.
func newTestServer(t *testing.T) (*httptest.Server, *thirstyflops.Engine) {
	t.Helper()
	stream, err := thirstyflops.NewStream("", 0, 336)
	if err != nil {
		t.Fatal(err)
	}
	eng := thirstyflops.NewEngine(thirstyflops.WithLiveStreams(thirstyflops.NewStreamRegistry(stream)))
	h, err := newMux(eng)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts, eng
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestAssessEndToEnd(t *testing.T) {
	ts, eng := newTestServer(t)
	resp := postJSON(t, ts.URL+"/assess", `{"system": "Frontier", "scenarios": true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var got thirstyflops.AssessResult
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}

	// The served response must agree with a direct Engine call.
	want, err := eng.Assess(context.Background(),
		thirstyflops.AssessRequest{System: "Frontier", Scenarios: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.System != "Frontier" || got.Site != want.Site {
		t.Errorf("metadata wrong: %+v", got)
	}
	if got.OperationalL != want.OperationalL || got.LifetimeTotalL != want.LifetimeTotalL ||
		got.CarbonKg != want.CarbonKg {
		t.Error("served footprints differ from direct engine result")
	}
	if len(got.Scenarios) != 5 {
		t.Errorf("scenarios = %d, want 5", len(got.Scenarios))
	}

	// A repeat request is answered from the cache.
	resp2 := postJSON(t, ts.URL+"/assess", `{"system": "Frontier", "scenarios": true}`)
	var again thirstyflops.AssessResult
	if err := json.NewDecoder(resp2.Body).Decode(&again); err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("repeat request did not hit the engine cache")
	}
}

func TestAssessCustomSystem(t *testing.T) {
	ts, _ := newTestServer(t)
	resp := postJSON(t, ts.URL+"/assess", `{
		"custom": {
			"system": {
				"name": "EdgePod", "nodes": 4,
				"cpu": {"catalog": "AMD EPYC 7532"}, "cpus_per_node": 1,
				"dram_gb_per_node": 64, "peak_power_mw": 0.004, "pue": 1.4
			},
			"site_name": "Lemont", "region": "Illinois"
		}
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var got thirstyflops.AssessResult
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.System != "EdgePod" || got.OperationalL <= 0 {
		t.Errorf("custom assessment wrong: %+v", got)
	}
}

func TestAssessErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, tc := range []struct {
		body   string
		status int
	}{
		{`{"system": "HAL9000"}`, http.StatusBadRequest},
		{`{"unknown_field": 1}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
		{``, http.StatusBadRequest}, // empty body selects no system
	} {
		resp := postJSON(t, ts.URL+"/assess", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("body %q: status = %d, want %d", tc.body, resp.StatusCode, tc.status)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
			t.Errorf("body %q: error body missing", tc.body)
		}
	}
	// GET is a supported method now; without a system it is the same
	// invalid request shape as an empty POST body.
	resp, err := http.Get(ts.URL + "/assess")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("GET /assess status = %d, want 400", resp.StatusCode)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/assess", nil)
	if err != nil {
		t.Fatal(err)
	}
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer del.Body.Close()
	if del.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /assess status = %d, want 405", del.StatusCode)
	}
}

func TestAssessGetQueryParams(t *testing.T) {
	ts, eng := newTestServer(t)
	resp, err := http.Get(ts.URL + "/assess?system=Frontier&seed=7&year=2024")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var got thirstyflops.AssessResult
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	seed, year := uint64(7), 2024
	want, err := eng.Assess(context.Background(),
		thirstyflops.AssessRequest{System: "Frontier", Seed: &seed, Year: &year})
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 7 || got.Year != 2024 || got.OperationalL != want.OperationalL {
		t.Errorf("query-built request wrong: %+v", got)
	}
	if got.Source != thirstyflops.SourceSimulated {
		t.Errorf("source = %q, want simulated", got.Source)
	}

	for _, bad := range []string{"?system=Frontier&seed=x", "?system=Frontier&year=x", "?system=Frontier&source=psychic"} {
		resp, err := http.Get(ts.URL + "/assess" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", bad, resp.StatusCode)
		}
	}
}

func TestSweepEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	resp := postJSON(t, ts.URL+"/sweep", `{"systems": ["Marconi", "Fugaku"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var got thirstyflops.SweepResult
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Systems) != 2 || got.Systems[0].System != "Marconi" {
		t.Errorf("sweep wrong: %+v", got.Systems)
	}
	for _, s := range got.Systems {
		if len(s.Scenarios) != 5 {
			t.Errorf("%s: scenarios = %d, want 5", s.System, len(s.Scenarios))
		}
	}
}

func TestWater500Endpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/water500")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var got thirstyflops.Water500Result
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 4 || got.Entries[0].Rank != 1 {
		t.Errorf("ranking malformed: %+v", got.Entries)
	}
	if resp, err := http.Get(ts.URL + "/water500?seed=bogus"); err == nil {
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad seed status = %d, want 400", resp.StatusCode)
		}
	}
}

func TestWater500PostBody(t *testing.T) {
	ts, _ := newTestServer(t)
	byQuery, err := http.Get(ts.URL + "/water500?seed=7")
	if err != nil {
		t.Fatal(err)
	}
	defer byQuery.Body.Close()
	var want thirstyflops.Water500Result
	if err := json.NewDecoder(byQuery.Body).Decode(&want); err != nil {
		t.Fatal(err)
	}

	// The same seed in a POSTed body must be honored, not ignored.
	resp := postJSON(t, ts.URL+"/water500", `{"seed": 7}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var got thirstyflops.Water500Result
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != len(want.Entries) {
		t.Fatalf("entry counts differ: %d vs %d", len(got.Entries), len(want.Entries))
	}
	for i := range got.Entries {
		if got.Entries[i] != want.Entries[i] {
			t.Errorf("entry %d: body-seeded %+v != query-seeded %+v", i, got.Entries[i], want.Entries[i])
		}
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	// Warm the cache so the health report shows engine activity.
	postJSON(t, ts.URL+"/assess", `{"system": "Polaris"}`)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var h healthBody
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.UptimeSeconds < 0 {
		t.Errorf("health wrong: %+v", h)
	}
	if h.Cache.Misses != 1 {
		t.Errorf("cache stats not surfaced: %+v", h.Cache)
	}
}

func TestIngestAndLiveAssessEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t)

	// /livez starts empty.
	resp, err := http.Get(ts.URL + "/livez")
	if err != nil {
		t.Fatal(err)
	}
	var st thirstyflops.StreamStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || st.Epoch != 0 || st.HoursObserved != 0 {
		t.Fatalf("fresh /livez wrong: status %d, %+v", resp.StatusCode, st)
	}

	// Ingest an NDJSON batch: 24 observed hours at 5 MW.
	var b strings.Builder
	for h := 0; h < 24; h++ {
		fmt.Fprintf(&b, "{\"hour\":%d,\"power_w\":5e6}\n", h)
	}
	resp = postJSON(t, ts.URL+"/ingest", b.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	var ing ingestBody
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	if ing.Accepted != 24 || ing.Rejected != 0 || ing.Epoch != 24 {
		t.Fatalf("ingest summary wrong: %+v", ing)
	}

	// The very next live assessment reflects the batch.
	resp2, err := http.Get(ts.URL + "/assess?system=Frontier&source=live")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("live assess status = %d", resp2.StatusCode)
	}
	var live thirstyflops.AssessResult
	if err := json.NewDecoder(resp2.Body).Decode(&live); err != nil {
		t.Fatal(err)
	}
	if live.Source != thirstyflops.SourceLive || live.Live == nil {
		t.Fatalf("live provenance missing: %+v", live)
	}
	if live.Live.Epoch != 24 || live.Live.HoursObserved != 24 {
		t.Errorf("live window wrong: %+v", live.Live)
	}

	// /livez reflects coverage and lag.
	resp3, err := http.Get(ts.URL + "/livez")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if err := json.NewDecoder(resp3.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Accepted != 24 || st.LatestHour != 23 || st.LagHours != 0 {
		t.Errorf("post-ingest /livez wrong: %+v", st)
	}

	// A single JSON object (the curl shape) also ingests, and the
	// epoch advance invalidates the cached live assessment.
	resp = postJSON(t, ts.URL+"/ingest", `{"hour": 24, "power_w": 4.2e6}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single-sample ingest status = %d", resp.StatusCode)
	}
	resp4, err := http.Get(ts.URL + "/assess?system=Frontier&source=live")
	if err != nil {
		t.Fatal(err)
	}
	defer resp4.Body.Close()
	var after thirstyflops.AssessResult
	if err := json.NewDecoder(resp4.Body).Decode(&after); err != nil {
		t.Fatal(err)
	}
	if after.Cached {
		t.Error("post-ingest live assessment served from stale cache")
	}
	if after.Live.Epoch != 25 || after.Live.HoursObserved != 25 {
		t.Errorf("updated window wrong: %+v", after.Live)
	}
}

func TestIngestErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, tc := range []struct {
		name   string
		body   string
		status int
	}{
		{"malformed json", `{"hour":`, http.StatusBadRequest},
		{"unknown field", `{"hour":0,"power_w":1,"volts":9}`, http.StatusBadRequest},
		{"empty body", ``, http.StatusBadRequest},
		{"bare number", `17`, http.StatusBadRequest},
		{"all samples unphysical", `{"hour":0,"power_w":-5}`, http.StatusUnprocessableEntity},
		{"hour outside year", `{"hour":9999,"power_w":1}`, http.StatusUnprocessableEntity},
	} {
		resp := postJSON(t, ts.URL+"/ingest", tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.status)
		}
	}

	// Partial rejection still lands the good samples.
	resp := postJSON(t, ts.URL+"/ingest", "{\"hour\":0,\"power_w\":1e6}\n{\"hour\":1,\"power_w\":-1}\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial batch status = %d", resp.StatusCode)
	}
	var ing ingestBody
	if err := json.NewDecoder(resp.Body).Decode(&ing); err != nil {
		t.Fatal(err)
	}
	if ing.Accepted != 1 || ing.Rejected != 1 || len(ing.Errors) == 0 {
		t.Errorf("partial summary wrong: %+v", ing)
	}

	// GET is not an ingest method.
	getResp, err := http.Get(ts.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	defer getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /ingest status = %d, want 405", getResp.StatusCode)
	}
}

func TestLiveRoutesWithoutStream(t *testing.T) {
	eng := thirstyflops.NewEngine() // no WithLiveStreams
	h, err := newMux(eng)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)

	resp := postJSON(t, ts.URL+"/ingest", `{"hour":0,"power_w":1}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/ingest without stream status = %d, want 503", resp.StatusCode)
	}
	lz, err := http.Get(ts.URL + "/livez")
	if err != nil {
		t.Fatal(err)
	}
	defer lz.Body.Close()
	if lz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/livez without stream status = %d, want 503", lz.StatusCode)
	}
	av, err := http.Get(ts.URL + "/assess?system=Frontier&source=live")
	if err != nil {
		t.Fatal(err)
	}
	defer av.Body.Close()
	if av.StatusCode != http.StatusBadRequest {
		t.Errorf("live assess without stream status = %d, want 400", av.StatusCode)
	}
}

// TestGracefulShutdownDrainsInflight proves Shutdown lets an in-flight
// request finish: an /ingest POST whose body arrives only after Shutdown
// has closed the listener must still complete with 200, while fresh
// connections are refused. Each step waits on an explicit signal: the
// handler entering, then Shutdown's hooks starting (which happens after
// the listeners are closed).
func TestGracefulShutdownDrainsInflight(t *testing.T) {
	stream, err := thirstyflops.NewStream("", 0, 24)
	if err != nil {
		t.Fatal(err)
	}
	eng := thirstyflops.NewEngine(thirstyflops.WithLiveStreams(thirstyflops.NewStreamRegistry(stream)))
	h, err := newMux(eng)
	if err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{}, 1)
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case entered <- struct{}{}:
		default:
		}
		h.ServeHTTP(w, r)
	})}
	closing := make(chan struct{})
	srv.RegisterOnShutdown(func() { close(closing) })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()

	// Start a request whose body we hold open across Shutdown.
	pr, pw := io.Pipe()
	type result struct {
		status int
		err    error
	}
	inflight := make(chan result, 1)
	go func() {
		req, err := http.NewRequest(http.MethodPost, base+"/ingest", pr)
		if err != nil {
			inflight <- result{0, err}
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			inflight <- result{0, err}
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		inflight <- result{resp.StatusCode, nil}
	}()
	// Send part of the body, then wait until the handler is running, so
	// the request is in flight before Shutdown starts.
	if _, err := pw.Write([]byte(`{"hour":0,`)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case got := <-inflight:
		t.Fatalf("request finished before reaching the handler: %+v", got)
	}

	shutdownDone := make(chan error, 1)
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	go func() { shutdownDone <- srv.Shutdown(shutCtx) }()

	// Finish the body only once Shutdown has closed the listener.
	<-closing
	if _, err := pw.Write([]byte(`"power_w":1e6}`)); err != nil {
		t.Fatal(err)
	}
	pw.Close()

	got := <-inflight
	if got.err != nil {
		t.Fatalf("in-flight request dropped during shutdown: %v", got.err)
	}
	if got.status != http.StatusOK {
		t.Errorf("in-flight status = %d, want 200", got.status)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("shutdown did not drain cleanly: %v", err)
	}
	if stream.Epoch() != 1 {
		t.Errorf("drained ingest lost: epoch = %d, want 1", stream.Epoch())
	}

	// The listener is closed: new connections are refused.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("connection accepted after shutdown")
	}
}
