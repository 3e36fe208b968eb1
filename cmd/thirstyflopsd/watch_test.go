package main

import (
	"bufio"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"thirstyflops"
	"thirstyflops/internal/statsd"
	"thirstyflops/internal/wire"
)

// newWatchTestServer stands the daemon up the way main() does with
// live streams, the UDP plane, and the watch push plane, returning the
// server struct so tests can reach the hub. Cleanups run in LIFO order:
// the hub drains first, so open SSE handlers return before ts.Close
// waits on them.
func newWatchTestServer(t *testing.T, systems string, hour int, cfg jobsConfig) (*httptest.Server, *statsd.Server, *server) {
	t.Helper()
	reg, err := buildStreams(systems, 0, 336)
	if err != nil {
		t.Fatal(err)
	}
	eng := thirstyflops.NewEngine(thirstyflops.WithLiveStreams(reg))
	if cfg.WatchHeartbeat == 0 {
		cfg.WatchHeartbeat = 50 * time.Millisecond
	}
	s, err := newServer(eng, cfg)
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
	s.udp = udp
	t.Cleanup(func() { udp.Close() })
	ts := httptest.NewServer(s.mux())
	t.Cleanup(ts.Close)
	t.Cleanup(s.close)
	return ts, udp, s
}

// sseEvent is one parsed text/event-stream event.
type sseEvent struct {
	id    string
	event string
	data  string
}

// sseClient reads one /watch stream on a background goroutine so tests
// can wait for events with timeouts.
type sseClient struct {
	resp   *http.Response
	cancel context.CancelFunc
	events chan sseEvent
}

// openWatch connects to GET /watch. A nil check on resp is the caller's
// job for non-200 tests; on 200 the event pump starts.
func openWatch(t *testing.T, base, query string, hdr map[string]string) *sseClient {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/watch?"+query, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	c := &sseClient{resp: resp, cancel: cancel, events: make(chan sseEvent, 256)}
	t.Cleanup(c.close)
	if resp.StatusCode == http.StatusOK {
		go c.pump()
	}
	return c
}

func (c *sseClient) close() {
	c.cancel()
	c.resp.Body.Close()
}

func (c *sseClient) pump() {
	defer close(c.events)
	br := bufio.NewReader(c.resp.Body)
	var ev sseEvent
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "":
			if ev != (sseEvent{}) {
				c.events <- ev
				ev = sseEvent{}
			}
		case strings.HasPrefix(line, "id: "):
			ev.id = line[len("id: "):]
		case strings.HasPrefix(line, "event: "):
			ev.event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			ev.data = line[len("data: "):]
		}
	}
}

// next returns the next event of the wanted type (skipping heartbeats
// and anything else), io.EOF once the stream ends.
func (c *sseClient) next(t *testing.T, want string, timeout time.Duration) (sseEvent, error) {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case ev, ok := <-c.events:
			if !ok {
				return sseEvent{}, io.EOF
			}
			if ev.event == want {
				return ev, nil
			}
		case <-deadline:
			return sseEvent{}, fmt.Errorf("no %q event within %v", want, timeout)
		}
	}
}

// decodeAssessment unmarshals an assessment event's JSON payload.
func decodeAssessment(t *testing.T, ev sseEvent) *thirstyflops.AssessResult {
	t.Helper()
	var res thirstyflops.AssessResult
	if err := json.Unmarshal([]byte(ev.data), &res); err != nil {
		t.Fatalf("undecodable event data %q: %v", ev.data, err)
	}
	return &res
}

// TestWatchPushAndBitIdentity is the E2E acceptance path: a UDP
// datagram, flushed, surfaces as one SSE assessment event whose payload
// is bit-identical (modulo the cache-hit flag) to an immediately
// following GET /assess?source=live for the same system and epoch.
func TestWatchPushAndBitIdentity(t *testing.T) {
	ts, udp, _ := newWatchTestServer(t, "Frontier,Marconi", 3, jobsConfig{})
	c := openWatch(t, ts.URL, "system=Frontier&source=live", nil)
	if c.resp.StatusCode != http.StatusOK {
		t.Fatalf("watch status = %d", c.resp.StatusCode)
	}
	if ct := c.resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	sendDatagram(t, udp, "fleet.Frontier.power:4000000|g")
	waitProcessed(t, udp)
	udp.Flush()

	ev, err := c.next(t, "assessment", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ev.id != "1" {
		t.Errorf("first event id = %q", ev.id)
	}
	pushed := decodeAssessment(t, ev)
	if pushed.System != "Frontier" || pushed.Source != thirstyflops.SourceLive {
		t.Fatalf("pushed result = %s/%s", pushed.System, pushed.Source)
	}
	if pushed.Live == nil || pushed.Live.Epoch != 1 {
		t.Fatalf("pushed live provenance = %+v", pushed.Live)
	}

	resp, err := http.Get(ts.URL + "/assess?system=Frontier&source=live")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("assess status = %d", resp.StatusCode)
	}
	var polled thirstyflops.AssessResult
	if err := json.NewDecoder(resp.Body).Decode(&polled); err != nil {
		t.Fatal(err)
	}
	if polled.Live == nil || polled.Live.Epoch != pushed.Live.Epoch {
		t.Fatalf("polled epoch %+v != pushed %+v", polled.Live, pushed.Live)
	}
	// The push was the cache fill; the poll hits it. Everything but the
	// cache-hit flag must re-encode byte-identical.
	if !polled.Cached {
		t.Error("poll after push was not a cache hit — the hub did not share the fill")
	}
	pushed.Cached, polled.Cached = false, false
	a, _ := json.Marshal(pushed)
	b, _ := json.Marshal(&polled)
	if string(a) != string(b) {
		t.Errorf("push and poll diverge:\npush: %s\npoll: %s", a, b)
	}

	// A heartbeat arrives between advances.
	hb, err := c.next(t, "heartbeat", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var beat struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal([]byte(hb.data), &beat); err != nil || beat.Epoch != 1 {
		t.Errorf("heartbeat = %q (err %v)", hb.data, err)
	}

	// The second flush advances the epoch and pushes event 2 — and the
	// Marconi datagram does not bleed into the Frontier stream.
	sendDatagram(t, udp, "fleet.Frontier.power:6000000|g\nfleet.Marconi.power:1000000|g")
	waitProcessed(t, udp)
	udp.Flush()
	ev2, err := c.next(t, "assessment", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ev2.id != "2" {
		t.Errorf("second event id = %q", ev2.id)
	}
	second := decodeAssessment(t, ev2)
	if second.System != "Frontier" || second.Live.Epoch != 2 {
		t.Fatalf("second event = %s epoch %d", second.System, second.Live.Epoch)
	}
}

func TestWatchResumeReemitsCurrentEpoch(t *testing.T) {
	ts, udp, _ := newWatchTestServer(t, "Frontier", 0, jobsConfig{})

	first := openWatch(t, ts.URL, "system=Frontier", nil)
	sendDatagram(t, udp, "fleet.Frontier.power:5000000|g")
	waitProcessed(t, udp)
	udp.Flush()
	ev, err := first.next(t, "assessment", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	first.close()

	// Reconnecting with Last-Event-ID re-observes the current epoch's
	// result (same ID, same payload) without a new flush.
	resumed := openWatch(t, ts.URL, "system=Frontier", map[string]string{"Last-Event-ID": ev.id})
	again, err := resumed.next(t, "assessment", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if again.id != ev.id || again.data != ev.data {
		t.Errorf("resume replayed id %s (want %s); payloads equal: %v", again.id, ev.id, again.data == ev.data)
	}
}

func TestWatchWireEncoding(t *testing.T) {
	ts, udp, _ := newWatchTestServer(t, "Frontier", 0, jobsConfig{})
	// EventSource clients cannot set Accept, so ?encoding=wire is the
	// query-parameter spelling of Accept: application/x-thirstyflops-wire.
	c := openWatch(t, ts.URL, "system=Frontier&encoding=wire", nil)

	sendDatagram(t, udp, "fleet.Frontier.power:5000000|g")
	waitProcessed(t, udp)
	udp.Flush()

	ev, err := c.next(t, "assessment", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := base64.StdEncoding.DecodeString(ev.data)
	if err != nil {
		t.Fatalf("event data is not base64: %v", err)
	}
	res, err := wire.DecodeResult(frame)
	if err != nil {
		t.Fatalf("frame does not decode: %v", err)
	}
	if res.System != "Frontier" || res.Source != thirstyflops.SourceLive || res.Live == nil || res.Live.Epoch != 1 {
		t.Fatalf("wire result = %+v", res)
	}

	// The Accept-header spelling negotiates the same frames.
	c2 := openWatch(t, ts.URL, "system=Frontier", map[string]string{"Accept": wire.MediaType, "Last-Event-ID": "1"})
	ev2, err := c2.next(t, "assessment", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if ev2.data != ev.data {
		t.Error("Accept-negotiated frame differs from ?encoding=wire frame")
	}
}

// TestWatchUnknownSystem404 is the live-routing regression test: both
// live query paths answer 404 with known-system attribution for systems
// that cannot be live-assessed — even when a wildcard stream would
// resolve the name.
func TestWatchUnknownSystem404(t *testing.T) {
	// Per-system registry: a fleet system without a stream is 404 with
	// the registered-stream list.
	ts, _, _ := newWatchTestServer(t, "Frontier", 0, jobsConfig{})

	get := func(url string) (int, string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}

	status, body := get(ts.URL + "/watch?system=HAL9000")
	if status != http.StatusNotFound || !strings.Contains(body, "Frontier") {
		t.Errorf("/watch unknown system = %d %q, want 404 naming known systems", status, body)
	}
	status, body = get(ts.URL + "/watch?system=Marconi")
	if status != http.StatusNotFound || !strings.Contains(body, "streams exist for") {
		t.Errorf("/watch streamless system = %d %q, want 404 naming streams", status, body)
	}
	// The same miss on the polling path: previously a generic 400.
	status, body = get(ts.URL + "/assess?system=Marconi&source=live")
	if status != http.StatusNotFound || !strings.Contains(body, "streams exist for") {
		t.Errorf("/assess?source=live streamless system = %d %q, want 404", status, body)
	}

	// Wildcard registry: the wildcard routes samples for any name, but
	// it does not make an unknown system assessable — still 404.
	wts, _, _ := newWatchTestServer(t, "", 0, jobsConfig{})
	status, body = get(wts.URL + "/watch?system=HAL9000")
	if status != http.StatusNotFound || !strings.Contains(body, "known systems") {
		t.Errorf("/watch unknown system over wildcard = %d %q, want 404", status, body)
	}

	// Parameter-shape failures stay 400, and /watch without live streams
	// is 503.
	if status, _ = get(ts.URL + "/watch"); status != http.StatusBadRequest {
		t.Errorf("missing system = %d, want 400", status)
	}
	if status, _ = get(ts.URL + "/watch?system=Frontier&source=simulated"); status != http.StatusBadRequest {
		t.Errorf("simulated source = %d, want 400", status)
	}
	// A daemon whose engine has no live streams never builds the hub.
	ns, err := newServer(thirstyflops.NewEngine(), jobsConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ns.close)
	dts := httptest.NewServer(ns.mux())
	t.Cleanup(dts.Close)
	if status, _ = get(dts.URL + "/watch?system=Frontier"); status != http.StatusServiceUnavailable {
		t.Errorf("watch without live streams = %d, want 503", status)
	}
}

func TestWatchSubscriberCap429(t *testing.T) {
	ts, udp, s := newWatchTestServer(t, "Frontier", 0, jobsConfig{WatchSubscribers: 1})

	baseline := runtime.NumGoroutine()
	c := openWatch(t, ts.URL, "system=Frontier", nil)
	if c.resp.StatusCode != http.StatusOK {
		t.Fatalf("first subscriber status = %d", c.resp.StatusCode)
	}
	over := openWatch(t, ts.URL, "system=Frontier", nil)
	if over.resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap status = %d, want 429", over.resp.StatusCode)
	}
	if over.resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	if st := s.watch.Stats(); st.Rejected != 1 || st.Subscribers != 1 {
		t.Errorf("hub stats after rejection = %+v", st)
	}
	over.close()

	// The rejected slot freed: events still flow to the live subscriber.
	sendDatagram(t, udp, "fleet.Frontier.power:1000000|g")
	waitProcessed(t, udp)
	udp.Flush()
	if _, err := c.next(t, "assessment", 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Cap rejections and a disconnect leave no goroutines behind.
	c.close()
	waitGoroutines(t, baseline)
}

// waitGoroutines polls until the goroutine count returns to (near) the
// baseline — the shared leak assertion (pattern from the PR 8 NDJSON
// stream leak check).
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d did not return to baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestWatchClientCancelNoLeak cancels subscribers mid-stream and
// verifies the daemon returns to its goroutine baseline.
func TestWatchClientCancelNoLeak(t *testing.T) {
	ts, udp, s := newWatchTestServer(t, "Frontier,Marconi", 0, jobsConfig{})

	sendDatagram(t, udp, "fleet.Frontier.power:1000000|g\nfleet.Marconi.power:2000000|g")
	waitProcessed(t, udp)
	udp.Flush()

	baseline := runtime.NumGoroutine()
	clients := make([]*sseClient, 0, 8)
	for i := 0; i < 8; i++ {
		sys := "Frontier"
		if i%2 == 1 {
			sys = "Marconi"
		}
		c := openWatch(t, ts.URL, "system="+sys, nil)
		if c.resp.StatusCode != http.StatusOK {
			t.Fatalf("subscriber %d status = %d", i, c.resp.StatusCode)
		}
		// Replay-on-connect: every subscriber observes current state
		// before we tear it down.
		if _, err := c.next(t, "assessment", 5*time.Second); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	if got := s.watch.Subscribers(); got != 8 {
		t.Fatalf("subscribers = %d", got)
	}
	for _, c := range clients {
		c.close()
	}
	waitGoroutines(t, baseline)
	waitFor := time.Now().Add(5 * time.Second)
	for s.watch.Subscribers() != 0 {
		if time.Now().After(waitFor) {
			t.Fatalf("%d subscribers still registered", s.watch.Subscribers())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWatchServerShutdownDrains runs a real http.Server the way main()
// wires it and verifies graceful shutdown with open streams: every
// subscriber receives a final shutdown event, Shutdown returns, and
// goroutines return to baseline.
func TestWatchServerShutdownDrains(t *testing.T) {
	reg, err := buildStreams("Frontier", 0, 336)
	if err != nil {
		t.Fatal(err)
	}
	eng := thirstyflops.NewEngine(thirstyflops.WithLiveStreams(reg))
	s, err := newServer(eng, jobsConfig{WatchHeartbeat: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// MaxInflight 1 with several concurrent streams proves /watch
	// bypasses the admission gate (its cap is the hub's).
	srv := &http.Server{Handler: s.handler(hardenConfig{MaxInflight: 1, QueueWait: 10 * time.Millisecond})}
	srv.RegisterOnShutdown(s.shutdownWatch)
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()

	resp := postJSON(t, base+"/ingest", `{"system": "Frontier", "hour": 1, "power_w": 1000000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}

	baseline := runtime.NumGoroutine()
	clients := make([]*sseClient, 0, 3)
	for i := 0; i < 3; i++ {
		c := openWatch(t, base, "system=Frontier", nil)
		if c.resp.StatusCode != http.StatusOK {
			t.Fatalf("subscriber %d status = %d (did /watch hit the admission gate?)", i, c.resp.StatusCode)
		}
		if _, err := c.next(t, "assessment", 5*time.Second); err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		t.Fatalf("Shutdown with open streams: %v", err)
	}
	// Every stream ended with the shutdown marker, then EOF.
	for i, c := range clients {
		if _, err := c.next(t, "shutdown", 5*time.Second); err != nil {
			t.Fatalf("subscriber %d missing shutdown event: %v", i, err)
		}
		if _, err := c.next(t, "assessment", 5*time.Second); err != io.EOF {
			t.Fatalf("subscriber %d stream did not end after shutdown: %v", i, err)
		}
		c.close()
	}
	if st := s.watch.Stats(); st.Shutdowns != 3 {
		t.Errorf("shutdowns = %d, want 3", st.Shutdowns)
	}
	waitGoroutines(t, baseline)
	s.close()
}
