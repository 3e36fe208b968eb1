package main

// Load benchmarks of the serving path itself — the ROADMAP's
// "thirstyflopsd load benchmark" extension. They exercise the daemon
// through real HTTP round trips (httptest server, keep-alive client,
// parallel requesters) so the measured cost includes routing, the
// negotiated codecs (JSON, binary wire, NDJSON streaming), and the
// Engine behind them. The numbers are recorded in BENCH_PR3.json and
// BENCH_PR8.json and gated by `make bench` via cmd/benchcheck.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"thirstyflops"
)

// benchServer starts the daemon mux with a warm live stream, mirroring
// main()'s wiring.
func benchServer(b *testing.B) (*httptest.Server, *thirstyflops.Engine) {
	b.Helper()
	stream, err := thirstyflops.NewStream("", 0, 336)
	if err != nil {
		b.Fatal(err)
	}
	eng := thirstyflops.NewEngine(thirstyflops.WithLiveStreams(thirstyflops.NewStreamRegistry(stream)))
	h, err := newMux(eng)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(h)
	b.Cleanup(ts.Close)
	return ts, eng
}

func do(b *testing.B, client *http.Client, method, url, body string) {
	doAccept(b, client, method, url, "", body)
}

// doAccept is do with an explicit Accept header, for the negotiated
// binary and streaming paths.
func doAccept(b *testing.B, client *http.Client, method, url, accept, body string) {
	var r io.Reader
	if body != "" {
		r = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, r)
	if err != nil {
		b.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := client.Do(req)
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("%s %s: status %d", method, url, resp.StatusCode)
	}
}

// BenchmarkDaemonAssess is the headline serving number: concurrent
// cached /assess throughput over real HTTP.
func BenchmarkDaemonAssess(b *testing.B) {
	ts, _ := benchServer(b)
	do(b, ts.Client(), http.MethodPost, ts.URL+"/assess", `{"system": "Frontier"}`) // warm the memo
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := ts.Client()
		for pb.Next() {
			do(b, client, http.MethodPost, ts.URL+"/assess", `{"system": "Frontier"}`)
		}
	})
}

// BenchmarkDaemonAssessWire is the same cached /assess load served as
// the binary wire frame instead of JSON.
func BenchmarkDaemonAssessWire(b *testing.B) {
	ts, _ := benchServer(b)
	do(b, ts.Client(), http.MethodPost, ts.URL+"/assess", `{"system": "Frontier"}`)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := ts.Client()
		for pb.Next() {
			doAccept(b, client, http.MethodPost, ts.URL+"/assess", ctWire, `{"system": "Frontier"}`)
		}
	})
}

// seriesBody asks for the full-year hourly series — the payload the
// binary codec exists for (~35KB of JSON numbers per column).
const seriesBody = `{"system": "Frontier", "include_series": true}`

// BenchmarkDaemonAssessSeriesJSON serves a cached full-year series
// result as JSON: the baseline the wire ratio is measured against.
func BenchmarkDaemonAssessSeriesJSON(b *testing.B) {
	ts, _ := benchServer(b)
	do(b, ts.Client(), http.MethodPost, ts.URL+"/assess", seriesBody)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := ts.Client()
		for pb.Next() {
			do(b, client, http.MethodPost, ts.URL+"/assess", seriesBody)
		}
	})
}

// BenchmarkDaemonAssessSeriesWire serves the identical series result as
// a columnar wire frame.
func BenchmarkDaemonAssessSeriesWire(b *testing.B) {
	ts, _ := benchServer(b)
	do(b, ts.Client(), http.MethodPost, ts.URL+"/assess", seriesBody)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := ts.Client()
		for pb.Next() {
			doAccept(b, client, http.MethodPost, ts.URL+"/assess", ctWire, seriesBody)
		}
	})
}

// BenchmarkDaemonAssessLive measures the observed-demand path: live
// splice served from the epoch-keyed cache.
func BenchmarkDaemonAssessLive(b *testing.B) {
	ts, eng := benchServer(b)
	for h := 0; h < 24; h++ {
		if _, err := eng.Ingest(thirstyflops.Sample{Hour: h, Power: 2.1e7}); err != nil {
			b.Fatal(err)
		}
	}
	url := ts.URL + "/assess?system=Frontier&source=live"
	do(b, ts.Client(), http.MethodGet, url, "")
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := ts.Client()
		for pb.Next() {
			do(b, client, http.MethodGet, url, "")
		}
	})
}

// BenchmarkDaemonJobResultStream streams a 10k-unit job result as
// NDJSON per op: the chunked writer against a result set far past the
// JSON page cap.
func BenchmarkDaemonJobResultStream(b *testing.B) {
	srv, err := newServer(thirstyflops.NewEngine(), jobsConfig{Retain: 4, Concurrency: 1, MaxUnits: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.close)
	ts := httptest.NewServer(srv.mux())
	b.Cleanup(ts.Close)
	const n = 10_000
	job, err := srv.jobs.Submit(n, func(ctx context.Context, progress func(int)) ([]jobUnit, error) {
		units := make([]jobUnit, n)
		for i := range units {
			units[i] = jobUnit{Index: i, Error: "synthetic"}
		}
		return units, nil
	})
	if err != nil {
		b.Fatal(err)
	}
	<-job.Done()
	url := ts.URL + "/jobs/" + job.ID() + "/result"
	client := ts.Client()
	doAccept(b, client, http.MethodGet, url, ctNDJSON, "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doAccept(b, client, http.MethodGet, url, ctNDJSON, "")
	}
}

// BenchmarkDaemonIngest measures NDJSON batch ingestion: one POST of 24
// hourly samples per op, epoch advancing every time.
func BenchmarkDaemonIngest(b *testing.B) {
	ts, _ := benchServer(b)
	var batch strings.Builder
	for h := 0; h < 24; h++ {
		fmt.Fprintf(&batch, "{\"hour\":%d,\"power_w\":2.1e7}\n", h)
	}
	body := batch.String()
	client := ts.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		do(b, client, http.MethodPost, ts.URL+"/ingest", body)
	}
}
