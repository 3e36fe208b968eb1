package main

import (
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"thirstyflops"
	"thirstyflops/internal/statsd"
	"thirstyflops/internal/telemetry"
)

// newUDPTestServer stands up the daemon the way main() does with
// -live-systems and -udp-addr: one pinned stream per system, the statsd
// plane sinking into the engine's registry. The flush hour is pinned so
// assertions on the spliced series are deterministic.
func newUDPTestServer(t *testing.T, systems string, hour int) (*httptest.Server, *statsd.Server, *thirstyflops.Engine) {
	t.Helper()
	reg, err := buildStreams(systems, 0, 336)
	if err != nil {
		t.Fatal(err)
	}
	eng := thirstyflops.NewEngine(thirstyflops.WithLiveStreams(reg))
	s, err := newServer(eng, jobsConfig{})
	if err != nil {
		t.Fatal(err)
	}
	udp, err := statsd.NewServer(statsd.Config{
		Addr:  "127.0.0.1:0",
		Sink:  reg.Ingest,
		Known: func(system string) bool { return reg.Resolve(system) != nil },
		Hour:  func() int { return hour },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := udp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { udp.Close() })
	s.udp = udp
	ts := httptest.NewServer(s.mux())
	t.Cleanup(ts.Close)
	return ts, udp, eng
}

// sendDatagram fires one UDP packet at the plane and waits for receipt.
func sendDatagram(t *testing.T, udp *statsd.Server, payload string) {
	t.Helper()
	conn, err := net.Dial("udp", udp.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	want := udp.Stats().Datagrams + 1
	if _, err := conn.Write([]byte(payload)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for udp.Stats().Datagrams < want {
		if time.Now().After(deadline) {
			t.Fatal("datagram never arrived")
		}
		time.Sleep(time.Millisecond)
	}
}

func waitProcessed(t *testing.T, udp *statsd.Server) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := udp.Stats()
		if st.Processed+st.Dropped.Overflow+st.Dropped.Unauthorized == st.Datagrams && st.QueueLen == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never drained: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestUDPIngestToLiveAssess is the acceptance path: statsd packets for
// two fleet systems in one daemon, flushed into per-system streams, each
// served as its own source=live assessment with the flushed mean visible
// in the spliced series.
func TestUDPIngestToLiveAssess(t *testing.T) {
	const hour = 3
	ts, udp, _ := newUDPTestServer(t, "Frontier,Marconi", hour)

	sendDatagram(t, udp, "fleet.Frontier.power:4000000|g\nfleet.Marconi.power:2000000|g")
	sendDatagram(t, udp, "fleet.Frontier.power:6000000|g")
	sendDatagram(t, udp, "fleet.Ghost.power:1|g\nnot a metric")
	waitProcessed(t, udp)
	sums := udp.Flush()
	if len(sums) != 2 {
		t.Fatalf("flush = %+v", sums)
	}

	assertLiveEnergy := func(system string, wantKWh float64) {
		t.Helper()
		resp := postJSON(t, ts.URL+"/assess",
			`{"system": "`+system+`", "source": "live", "include_series": true}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s live assess status = %d", system, resp.StatusCode)
		}
		var res thirstyflops.AssessResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		if res.Live == nil || res.Live.System != system || res.Live.Epoch != 1 || res.Live.HoursObserved != 1 {
			t.Fatalf("%s live provenance wrong: %+v", system, res.Live)
		}
		if got := float64(res.Series.Energy[hour]); math.Abs(got-wantKWh) > 1e-6 {
			t.Errorf("%s energy at hour %d = %v kWh, want %v", system, hour, got, wantKWh)
		}
	}
	// Frontier flushed mean (4+6)/2 MW -> 5000 kWh; Marconi 2 MW -> 2000.
	assertLiveEnergy("Frontier", 5000)
	assertLiveEnergy("Marconi", 2000)

	// /livez: per-system stream statuses plus the fleet summary on top,
	// plus the UDP plane's counters with the drops attributed.
	resp, err := http.Get(ts.URL + "/livez")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lz struct {
		telemetry.Status
		Streams []telemetry.Status `json:"streams"`
		UDP     *statsd.Stats      `json:"udp"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&lz); err != nil {
		t.Fatal(err)
	}
	if len(lz.Streams) != 2 || lz.Streams[0].System != "Frontier" || lz.Streams[1].System != "Marconi" {
		t.Fatalf("streams = %+v", lz.Streams)
	}
	if lz.Streams[0].Epoch != 1 || lz.Streams[1].Epoch != 1 || lz.Epoch != 2 {
		t.Errorf("epochs: streams %d/%d fleet %d", lz.Streams[0].Epoch, lz.Streams[1].Epoch, lz.Epoch)
	}
	if lz.UDP == nil {
		t.Fatal("/livez missing udp stats while the plane is serving")
	}
	if lz.UDP.Datagrams != 3 || lz.UDP.SamplesToSink != 2 {
		t.Errorf("udp counters wrong: %+v", lz.UDP)
	}
	if lz.UDP.Dropped.Malformed != 1 || lz.UDP.Dropped.UnknownSystem != 1 {
		t.Errorf("udp drops wrong: %+v", lz.UDP.Dropped)
	}

	// /healthz names the live systems and carries the UDP counters too.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var hz struct {
		Live *struct {
			Systems      []string      `json:"systems"`
			AuthRequired bool          `json:"auth_required"`
			Accepted     uint64        `json:"samples_accepted"`
			UDP          *statsd.Stats `json:"udp"`
		} `json:"live"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Live == nil || len(hz.Live.Systems) != 2 || hz.Live.Systems[0] != "Frontier" {
		t.Fatalf("healthz live = %+v", hz.Live)
	}
	if hz.Live.AuthRequired || hz.Live.Accepted != 2 || hz.Live.UDP == nil {
		t.Errorf("healthz live detail wrong: %+v", hz.Live)
	}
}

func TestIngestMultiStreamRouting(t *testing.T) {
	ts, _, _ := newUDPTestServer(t, "Frontier,Marconi", 0)

	resp := postJSON(t, ts.URL+"/ingest", `[
		{"system": "Frontier", "hour": 1, "power_w": 1000000},
		{"system": "Marconi", "hour": 1, "power_w": 2000000},
		{"system": "Frontier", "hour": 2, "power_w": 1000000},
		{"system": "Ghost", "hour": 1, "power_w": 1}
	]`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var body struct {
		Accepted int            `json:"accepted"`
		Rejected int            `json:"rejected"`
		Epoch    uint64         `json:"epoch"`
		Systems  map[string]int `json:"systems"`
		Errors   []string       `json:"errors"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Accepted != 3 || body.Rejected != 1 || body.Epoch != 3 {
		t.Errorf("accounting wrong: %+v", body)
	}
	if body.Systems["Frontier"] != 2 || body.Systems["Marconi"] != 1 || len(body.Systems) != 2 {
		t.Errorf("routing attribution wrong: %+v", body.Systems)
	}
	if len(body.Errors) != 1 || !strings.Contains(body.Errors[0], "no stream registered") {
		t.Errorf("errors = %v", body.Errors)
	}

	// A batch that only names unregistered systems is a routing miss, not
	// a malformed request: 404, with the distinct no-stream error.
	miss := postJSON(t, ts.URL+"/ingest", `{"system": "Ghost", "hour": 1, "power_w": 1}`)
	if miss.StatusCode != http.StatusNotFound {
		t.Errorf("all-unrouted batch status = %d, want 404", miss.StatusCode)
	}

	// A batch the streams reject (bad hour) is 422, distinct from 404.
	bad := postJSON(t, ts.URL+"/ingest", `{"system": "Frontier", "hour": -1, "power_w": 1}`)
	if bad.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("rejected batch status = %d, want 422", bad.StatusCode)
	}
}

func TestIngestBearerAuth(t *testing.T) {
	stream, err := thirstyflops.NewStream("", 0, 336)
	if err != nil {
		t.Fatal(err)
	}
	eng := thirstyflops.NewEngine(thirstyflops.WithLiveStreams(thirstyflops.NewStreamRegistry(stream)))
	s, err := newServer(eng, jobsConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s.ingestToken = "s3cret"
	ts := httptest.NewServer(s.mux())
	t.Cleanup(ts.Close)

	post := func(token string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/ingest",
			strings.NewReader(`{"hour": 0, "power_w": 1000000}`))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	if resp := post(""); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("tokenless ingest = %d, want 401", resp.StatusCode)
	} else if resp.Header.Get("WWW-Authenticate") == "" {
		t.Error("401 missing WWW-Authenticate")
	}
	if resp := post("Bearer wrong"); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("bad token = %d, want 401", resp.StatusCode)
	}
	if resp := post("Basic s3cret"); resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("wrong scheme = %d, want 401", resp.StatusCode)
	}
	if resp := post("Bearer s3cret"); resp.StatusCode != http.StatusOK {
		t.Errorf("good token = %d, want 200", resp.StatusCode)
	}
	// GET endpoints stay open: the token gates ingestion, not reads.
	if resp, err := http.Get(ts.URL + "/livez"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("livez with auth enabled = %v %v", resp.StatusCode, err)
	}
}

func TestLivezWithoutUDPOmitsStats(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/livez")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["udp"]; ok {
		t.Error("udp stats present without a UDP plane")
	}
	if _, ok := raw["streams"]; !ok {
		t.Error("streams array missing")
	}
	// The pre-registry top-level fields survive for old clients.
	for _, key := range []string{"epoch", "window_hours", "samples_accepted"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("backward-compatible field %q missing", key)
		}
	}
}

func TestBuildStreams(t *testing.T) {
	if _, err := buildStreams("Frontier,Frontier", 0, 24); err == nil {
		t.Error("duplicate systems accepted")
	}
	if _, err := buildStreams(" , ", 0, 24); err == nil {
		t.Error("empty -live-systems accepted")
	}
	reg, err := buildStreams(" Frontier , Marconi ", 2024, 24)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 2 || reg.Resolve("Frontier") == nil || reg.Resolve("Marconi") == nil {
		t.Errorf("registry = %v", reg.Systems())
	}
	if reg.Resolve("Frontier").Year() != 2024 {
		t.Error("year not pinned")
	}
	// Default single-stream path: one wildcard stream.
	reg, err = buildStreams("", 0, 24)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 1 || reg.Resolve("anything") == nil {
		t.Error("wildcard default missing")
	}
}
