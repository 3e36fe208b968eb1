package statsd

import (
	"net"
	"runtime"
	"testing"

	"thirstyflops/internal/telemetry"
)

// The parser benches are recorded at 0 allocs/op (BENCH.json): the
// telemetry plane's line-rate budget is set by ParsePacket, and one
// allocation per packet would dominate it.

func BenchmarkParseLine(b *testing.B) {
	line := []byte("fleet.Frontier.power:21500000|g|@0.1")
	var m Metric
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := ParseLine(line, &m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParsePacket(b *testing.B) {
	packet := []byte("fleet.Frontier.power:21500000|g|@0.1\n" +
		"fleet.Marconi.power:9800000|g\n" +
		"fleet.Polaris.power:172|c\n" +
		"fleet.Fugaku.power:320|ms\n")
	var sink float64
	emit := func(m Metric) { sink += m.Value }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if n := ParsePacket(packet, emit); n != 0 {
			b.Fatal("malformed lines in bench packet")
		}
	}
	_ = sink
}

// BenchmarkAggregatorAccumulate measures the full per-datagram path the
// aggregate loop runs: parse + route + accumulate under the mutex, with
// buffers warm (steady state, so appends don't grow).
func BenchmarkAggregatorAccumulate(b *testing.B) {
	a := NewAggregator(AggregatorConfig{Hour: func() int { return 0 }})
	packet := []byte("fleet.Frontier.power:21500000|g|@0.1\nfleet.Marconi.power:9800000|g\n")
	a.Accumulate(packet)
	a.Flush()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Accumulate(packet)
		if i%1024 == 1023 {
			b.StopTimer()
			a.Flush() // keep the gauge buffers bounded
			b.StartTimer()
		}
	}
}

// BenchmarkUDPIngest measures end-to-end ingest throughput through a
// real socket: client write → kernel → listener → queue → aggregator.
// Datagrams go in bounded windows (send a burst, wait until the whole
// window is processed) — small enough that neither the plane's queue nor
// the kernel socket buffer ever sheds load, so every datagram sent is a
// datagram measured, but large enough that goroutine wakeup latency
// amortizes instead of dominating the per-op figure.
func BenchmarkUDPIngest(b *testing.B) {
	s, err := NewServer(Config{
		Addr: "127.0.0.1:0",
		Sink: func(telemetry.Sample) error { return nil },
		Hour: func() int { return 0 },
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Start(); err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	conn, err := net.Dial("udp", s.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	packet := []byte("fleet.Frontier.power:21500000|g|@0.1\nfleet.Marconi.power:9800000|g\n")
	const window = 128 // well under the queue cap and socket buffer
	b.ReportAllocs()
	b.ResetTimer()
	sent := 0
	for sent < b.N {
		burst := window
		if left := b.N - sent; left < burst {
			burst = left
		}
		for j := 0; j < burst; j++ {
			if _, err := conn.Write(packet); err != nil {
				b.Fatal(err)
			}
		}
		sent += burst
		for s.processed.Load() < uint64(sent) {
			runtime.Gosched()
		}
		b.StopTimer()
		s.Flush() // keep the gauge buffers bounded
		b.StartTimer()
	}
	if got := s.Stats(); got.Dropped.Overflow != 0 || got.Datagrams != uint64(b.N) {
		b.Fatalf("bench shed load: %+v", got)
	}
}
