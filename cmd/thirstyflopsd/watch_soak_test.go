package main

// Daemon-level soak for the push plane: many SSE subscribers spread
// over several systems while bursty UDP ingest runs on a real flush
// ticker and clients disconnect at random. The invariants under churn:
// every subscriber sees strictly monotonic event IDs and epochs, only
// its own system's assessments (no cross-system bleed), the final
// flushed epoch reaches every surviving subscriber promptly, and the
// hub's closed accounting balances once everyone is gone.

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"thirstyflops"
	"thirstyflops/internal/statsd"
)

// soakClient wraps one SSE subscription with the per-subscriber
// invariant checks running on its own goroutine.
type soakClient struct {
	c      *sseClient
	system string

	lastID    uint64
	lastEpoch atomic.Uint64
	received  atomic.Uint64
	done      chan struct{}
}

func (sc *soakClient) run(t *testing.T) {
	defer close(sc.done)
	for ev := range sc.c.events {
		if ev.event != "assessment" {
			continue
		}
		id, err := strconv.ParseUint(ev.id, 10, 64)
		if err != nil {
			t.Errorf("%s subscriber: unparseable event id %q", sc.system, ev.id)
			continue
		}
		if id <= sc.lastID {
			t.Errorf("%s subscriber: event id %d not strictly after %d", sc.system, id, sc.lastID)
		}
		sc.lastID = id
		res := decodeAssessment(t, ev)
		if res.System != sc.system {
			t.Errorf("%s subscriber: cross-system bleed, got assessment for %s", sc.system, res.System)
		}
		if res.Live == nil {
			t.Errorf("%s subscriber: pushed result missing live provenance", sc.system)
			continue
		}
		if last := sc.lastEpoch.Load(); res.Live.Epoch <= last {
			t.Errorf("%s subscriber: epoch %d not strictly after %d", sc.system, res.Live.Epoch, last)
		}
		sc.lastEpoch.Store(res.Live.Epoch)
		sc.received.Add(1)
	}
}

func TestWatchDaemonSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const (
		flushEvery = 25 * time.Millisecond
		perSystem  = 4
		rounds     = 20
	)
	systems := []string{"Frontier", "Fugaku", "Polaris"}

	reg, err := buildStreams("Frontier,Fugaku,Polaris", 0, 336)
	if err != nil {
		t.Fatal(err)
	}
	eng := thirstyflops.NewEngine(thirstyflops.WithLiveStreams(reg))
	s, err := newServer(eng, jobsConfig{WatchHeartbeat: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	udp, err := statsd.NewServer(statsd.Config{
		Addr:          "127.0.0.1:0",
		FlushInterval: flushEvery,
		Sink:          reg.Ingest,
		Known:         func(system string) bool { return reg.Resolve(system) != nil },
		Hour:          func() int { return 0 },
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

	// Topics keep one pump goroutine alive after their last subscriber
	// leaves (the retained latest event backs Last-Event-ID resume), so
	// warm all three up before taking the goroutine baseline.
	for _, sys := range systems {
		c := openWatch(t, ts.URL, "system="+sys, nil)
		if c.resp.StatusCode != http.StatusOK {
			t.Fatalf("warmup subscriber for %s: status %d", sys, c.resp.StatusCode)
		}
		c.close()
	}
	warm := time.Now().Add(5 * time.Second)
	for s.watch.Subscribers() != 0 {
		if time.Now().After(warm) {
			t.Fatal("warmup subscribers never unregistered")
		}
		time.Sleep(time.Millisecond)
	}
	baseline := runtime.NumGoroutine()

	var clients []*soakClient
	var wg sync.WaitGroup
	for _, sys := range systems {
		for i := 0; i < perSystem; i++ {
			c := openWatch(t, ts.URL, "system="+sys, nil)
			if c.resp.StatusCode != http.StatusOK {
				t.Fatalf("subscriber for %s: status %d", sys, c.resp.StatusCode)
			}
			sc := &soakClient{c: c, system: sys, done: make(chan struct{})}
			clients = append(clients, sc)
			wg.Add(1)
			go func() { defer wg.Done(); sc.run(t) }()
		}
	}

	// Bursty ingest: each round hammers a random subset of systems with
	// a multi-sample burst, and halfway through one subscriber per
	// system disconnects mid-stream.
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < rounds; round++ {
		var burst string
		for _, sys := range systems {
			if rng.Intn(2) == 0 && burst != "" {
				continue
			}
			for j := 0; j < 3; j++ {
				if burst != "" {
					burst += "\n"
				}
				burst += "fleet." + sys + ".power:" + strconv.Itoa(3_000_000+rng.Intn(4_000_000)) + "|g"
			}
		}
		sendDatagram(t, udp, burst)
		if round == rounds/2 {
			for i, sc := range clients {
				if i%perSystem == 0 {
					sc.c.close()
				}
			}
		}
		time.Sleep(flushEvery / 3)
	}

	// Quiesce: force the final aggregation window out, then require the
	// terminal epoch of every stream to reach each surviving subscriber.
	// The acceptance bound is one flush interval; the poll allows a few
	// to absorb scheduler noise on loaded CI machines.
	waitProcessed(t, udp)
	udp.Flush()
	for i, sc := range clients {
		if i%perSystem == 0 {
			continue // disconnected mid-soak
		}
		want := reg.Resolve(sc.system).Epoch()
		deadline := time.Now().Add(10 * flushEvery)
		for sc.lastEpoch.Load() < want {
			if time.Now().After(deadline) {
				t.Fatalf("%s subscriber stuck at epoch %d, final epoch %d", sc.system, sc.lastEpoch.Load(), want)
			}
			time.Sleep(time.Millisecond)
		}
		if sc.received.Load() < 2 {
			t.Errorf("%s subscriber saw only %d events over %d rounds", sc.system, sc.received.Load(), rounds)
		}
	}

	// Tear everyone down and check the books: every enqueued event was
	// delivered, evicted drop-to-latest, or discarded at close — and the
	// daemon returns to its goroutine baseline.
	for _, sc := range clients {
		sc.c.close()
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for s.watch.Subscribers() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d subscribers still registered after all clients closed", s.watch.Subscribers())
		}
		time.Sleep(time.Millisecond)
	}
	st := s.watch.Stats()
	if st.Enqueued != st.Delivered+st.DroppedSlow+st.Discarded {
		t.Errorf("accounting leak: enqueued %d != delivered %d + dropped %d + discarded %d",
			st.Enqueued, st.Delivered, st.DroppedSlow, st.Discarded)
	}
	if st.Published == 0 || st.Delivered == 0 {
		t.Errorf("soak produced no traffic: %+v", st)
	}
	if st.Shutdowns != 0 {
		t.Errorf("hub shut down %d subscribers before server close", st.Shutdowns)
	}
	waitGoroutines(t, baseline)
}
