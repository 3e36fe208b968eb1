package watch

// Fanout latency benches for the push hub, gated by `make bench`
// against BENCH.json. Each iteration advances the epoch, pokes the
// topic, and waits until every subscriber has popped the resulting
// event — so ns/op is the full publish-to-last-delivery latency at the
// given fanout width, and allocs/op is the per-event cost of the whole
// fan (one refresh + N queue placements), not per subscriber.

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

func benchFanout(b *testing.B, subscribers int) {
	var epoch atomic.Uint64
	h := New(Options[uint64]{
		Assess: func(context.Context, string) (uint64, uint64, error) {
			e := epoch.Load()
			return e, e, nil
		},
		Epoch: func(string) (uint64, bool) { return epoch.Load(), true },
	})
	defer h.Shutdown()

	// One drain goroutine per subscriber, each acking every event it
	// pops. The per-iteration wait below means at most one event is in
	// flight per subscriber, so the default buffer never drops.
	var pending sync.WaitGroup
	var drains sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < subscribers; i++ {
		sub, err := h.Subscribe("bench", false)
		if err != nil {
			b.Fatal(err)
		}
		drains.Add(1)
		go func() {
			defer drains.Done()
			for {
				select {
				case <-stop:
					return
				case <-sub.Ready():
					for {
						if _, ok := sub.Next(); !ok {
							break
						}
						pending.Done()
					}
				}
			}
		}()
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pending.Add(subscribers)
		epoch.Add(1)
		h.Poke("bench")
		pending.Wait()
	}
	b.StopTimer()
	close(stop)
	drains.Wait()
}

func BenchmarkWatchFanout1(b *testing.B)    { benchFanout(b, 1) }
func BenchmarkWatchFanout100(b *testing.B)  { benchFanout(b, 100) }
func BenchmarkWatchFanout1000(b *testing.B) { benchFanout(b, 1000) }
