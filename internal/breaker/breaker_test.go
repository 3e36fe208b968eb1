package breaker

import (
	"errors"
	"sync"
	"testing"
	"time"
)

var errBoom = errors.New("boom")

// clock is a manual test clock.
type clock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *clock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *clock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTest(threshold int, cooldown time.Duration) (*Breaker, *clock) {
	c := &clock{t: time.Unix(1000, 0)}
	return New(Options{Threshold: threshold, Cooldown: cooldown, Now: c.now}), c
}

func TestTripsAfterKConsecutiveFailures(t *testing.T) {
	b, _ := newTest(3, time.Second)
	for i := 0; i < 2; i++ {
		if d := b.Acquire(); d != Go {
			t.Fatalf("acquire %d = %v, want Go", i, d)
		}
		b.Record(errBoom)
	}
	if b.State() != Closed {
		t.Fatalf("tripped after 2 failures, threshold is 3")
	}
	b.Record(errBoom)
	if b.State() != Open {
		t.Fatalf("state = %v after 3 consecutive failures, want Open", b.State())
	}
	if d := b.Acquire(); d != Deny {
		t.Fatalf("acquire while open = %v, want Deny", d)
	}
}

func TestSuccessResetsTheRun(t *testing.T) {
	b, _ := newTest(3, time.Second)
	b.Record(errBoom)
	b.Record(errBoom)
	b.Record(nil) // resets
	b.Record(errBoom)
	b.Record(errBoom)
	if b.State() != Closed {
		t.Fatal("interleaved successes must keep the breaker closed")
	}
	b.Record(errBoom)
	if b.State() != Open {
		t.Fatal("third consecutive failure after reset must trip")
	}
}

func TestHalfOpenProbeCycle(t *testing.T) {
	b, c := newTest(1, time.Second)
	b.Record(errBoom) // trips
	if d := b.Acquire(); d != Deny {
		t.Fatalf("pre-cooldown acquire = %v, want Deny", d)
	}
	c.advance(time.Second)
	if d := b.Acquire(); d != Probe {
		t.Fatalf("post-cooldown acquire = %v, want Probe", d)
	}
	// Only one probe outstanding: concurrent callers are denied.
	if d := b.Acquire(); d != Deny {
		t.Fatalf("second acquire during probe = %v, want Deny", d)
	}

	// Failed probe re-opens and restarts the cooldown.
	b.ProbeResult(errBoom)
	if b.State() != Open {
		t.Fatalf("state after failed probe = %v, want Open", b.State())
	}
	if d := b.Acquire(); d != Deny {
		t.Fatal("cooldown must restart after a failed probe")
	}
	c.advance(time.Second)
	if d := b.Acquire(); d != Probe {
		t.Fatal("second cooldown must admit another probe")
	}
	b.ProbeResult(nil)
	if b.State() != Closed {
		t.Fatalf("state after successful probe = %v, want Closed", b.State())
	}
	if d := b.Acquire(); d != Go {
		t.Fatal("closed breaker must admit calls")
	}
}

func TestSnapshotCounters(t *testing.T) {
	b, c := newTest(1, time.Second)
	b.Record(errBoom)
	b.Acquire() // deny
	c.advance(time.Second)
	b.Acquire() // probe
	b.ProbeResult(errBoom)
	c.advance(time.Second)
	b.Acquire() // probe
	b.ProbeResult(nil)

	s := b.Snapshot()
	if s.State != "closed" {
		t.Fatalf("snapshot state = %s, want closed", s.State)
	}
	if s.Trips != 2 { // initial trip + failed-probe re-open
		t.Fatalf("trips = %d, want 2", s.Trips)
	}
	if s.Denials != 1 || s.Probes != 2 || s.ProbeFails != 1 {
		t.Fatalf("denials=%d probes=%d probeFails=%d, want 1/2/1", s.Denials, s.Probes, s.ProbeFails)
	}
	if s.Consecutive != 0 {
		t.Fatalf("consecutive = %d after close, want 0", s.Consecutive)
	}
}

func TestConcurrentAcquireRace(t *testing.T) {
	b, _ := newTest(5, time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				switch b.Acquire() {
				case Go:
					if i%3 == 0 {
						b.Record(errBoom)
					} else {
						b.Record(nil)
					}
				case Probe:
					b.ProbeResult(nil)
				}
			}
		}(g)
	}
	wg.Wait()
	// No invariant beyond "no race, no deadlock, snapshot coherent".
	s := b.Snapshot()
	if s.State != "closed" && s.State != "open" && s.State != "half-open" {
		t.Fatalf("incoherent state %q", s.State)
	}
}
