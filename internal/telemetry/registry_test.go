package telemetry

import (
	"errors"
	"sync"
	"testing"
)

func TestRegistryResolveExactAndWildcard(t *testing.T) {
	r := NewRegistry()
	if got := r.Resolve("Frontier"); got != nil {
		t.Fatalf("empty registry resolved %v", got)
	}

	frontier := mustStream(t, "Frontier", 0, 24)
	wild := mustStream(t, "", 0, 24)
	r.Register(frontier)
	r.Register(wild)

	if got := r.Resolve("Frontier"); got != frontier {
		t.Error("exact match not preferred")
	}
	if got := r.Resolve("Marconi"); got != wild {
		t.Error("wildcard fallback missing")
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d", r.Len())
	}
	if sys := r.Systems(); len(sys) != 2 || sys[0] != "" || sys[1] != "Frontier" {
		t.Errorf("Systems = %v", sys)
	}
}

func TestRegistryResolveNoWildcard(t *testing.T) {
	r := NewRegistry()
	r.Register(mustStream(t, "Frontier", 0, 24))
	if got := r.Resolve("Marconi"); got != nil {
		t.Errorf("foreign system resolved to %v without a wildcard", got)
	}
}

func TestRegistryIngestRouting(t *testing.T) {
	r := NewRegistry()
	frontier := mustStream(t, "Frontier", 0, 24)
	marconi := mustStream(t, "Marconi", 0, 24)
	r.Register(frontier)
	r.Register(marconi)

	if err := r.Ingest(Sample{System: "Frontier", Hour: 0, Power: 1e6}); err != nil {
		t.Fatal(err)
	}
	if err := r.Ingest(Sample{System: "Marconi", Hour: 1, Power: 2e6}); err != nil {
		t.Fatal(err)
	}
	if frontier.Epoch() != 1 || marconi.Epoch() != 1 {
		t.Errorf("epochs = %d/%d, want 1/1", frontier.Epoch(), marconi.Epoch())
	}

	err := r.Ingest(Sample{System: "Ghost", Hour: 0, Power: 1})
	if !errors.Is(err, ErrNoStream) {
		t.Errorf("unrouted sample error = %v, want ErrNoStream", err)
	}
	// A stream's own rejection is not a routing failure.
	err = r.Ingest(Sample{System: "Frontier", Hour: -1, Power: 1})
	if err == nil || errors.Is(err, ErrNoStream) {
		t.Errorf("validation failure reported as routing failure: %v", err)
	}
}

func TestRegistryRegisterReplaces(t *testing.T) {
	r := NewRegistry()
	old := mustStream(t, "Frontier", 0, 24)
	r.Register(old)
	if err := r.Ingest(Sample{System: "Frontier", Hour: 0, Power: 1e6}); err != nil {
		t.Fatal(err)
	}
	replacement := mustStream(t, "Frontier", 0, 48)
	r.Register(replacement)
	if r.Len() != 1 || r.Resolve("Frontier") != replacement {
		t.Fatal("replacement did not take over routing")
	}
	if err := r.Ingest(Sample{System: "Frontier", Hour: 0, Power: 1e6}); err != nil {
		t.Fatal(err)
	}
	if old.Epoch() != 1 || replacement.Epoch() != 1 {
		t.Errorf("epochs after replace = %d/%d, want 1/1", old.Epoch(), replacement.Epoch())
	}
}

func TestRegistryStatusesAndSummarize(t *testing.T) {
	r := NewRegistry()
	a := mustStream(t, "A", 0, 24)
	b := mustStream(t, "B", 0, 48)
	r.Register(b)
	r.Register(a)
	for h := 0; h < 3; h++ {
		if err := a.Ingest(Sample{Hour: h, Power: 1e6}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Ingest(Sample{Hour: 10, Power: 2e6}); err != nil {
		t.Fatal(err)
	}
	_ = b.Ingest(Sample{Hour: -5, Power: 1}) // one rejection

	sts := r.Statuses()
	if len(sts) != 2 || sts[0].System != "A" || sts[1].System != "B" {
		t.Fatalf("statuses = %+v", sts)
	}
	sum := Summarize(sts)
	if sum.Epoch != 4 || sum.Accepted != 4 || sum.Rejected != 1 {
		t.Errorf("summarized counters wrong: %+v", sum)
	}
	if sum.HoursObserved != 4 {
		t.Errorf("HoursObserved = %d, want 4", sum.HoursObserved)
	}
	// Range is the union: A covers [0,3), B covers [0,11) after hour 10.
	if sum.Lo != 0 || sum.Hi != 11 || sum.LatestHour != 10 {
		t.Errorf("range = [%d,%d) latest %d", sum.Lo, sum.Hi, sum.LatestHour)
	}
	if sum.WindowHours != 48 {
		t.Errorf("WindowHours = %d, want widest stream", sum.WindowHours)
	}
	// B lags hours 0..9 inside its covered range.
	if sum.LagHours != 10 {
		t.Errorf("LagHours = %d, want 10", sum.LagHours)
	}

	if empty := Summarize(nil); empty.LatestHour != -1 || empty.Epoch != 0 {
		t.Errorf("empty summary = %+v", empty)
	}
}

func TestRegistryConcurrentRouting(t *testing.T) {
	r := NewRegistry()
	r.Register(mustStream(t, "A", 0, 64))
	r.Register(mustStream(t, "B", 0, 64))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sys := "A"
			if w%2 == 1 {
				sys = "B"
			}
			for i := 0; i < 200; i++ {
				if err := r.Ingest(Sample{System: sys, Hour: i % 64, Power: 1e6}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // registration stays safe while feeds run
		defer wg.Done()
		s := mustStream(t, "C", 0, 64)
		for i := 0; i < 50; i++ {
			r.Register(s)
			_ = r.Statuses()
		}
	}()
	wg.Wait()
	sum := Summarize(r.Statuses())
	if sum.Accepted != 800 {
		t.Errorf("accepted = %d, want 800", sum.Accepted)
	}
}

func TestRegistryOnAdvance(t *testing.T) {
	r := NewRegistry()
	r.Register(mustStream(t, "Frontier", 0, 24))
	r.Register(mustStream(t, "", 0, 24))

	type adv struct {
		system string
		epoch  uint64
	}
	var got []adv
	r.OnAdvance(func(system string, epoch uint64) { got = append(got, adv{system, epoch}) })

	// An exact-routed accept reports the stream's label and its epoch
	// after the accept; a wildcard-routed accept reports the wildcard's
	// empty label (the advance shifts every system).
	if err := r.Ingest(Sample{System: "Frontier", Hour: 0, Power: 1e6}); err != nil {
		t.Fatal(err)
	}
	if err := r.Ingest(Sample{System: "Frontier", Hour: 1, Power: 1e6}); err != nil {
		t.Fatal(err)
	}
	if err := r.Ingest(Sample{System: "Marconi", Hour: 0, Power: 2e6}); err != nil {
		t.Fatal(err)
	}
	want := []adv{{"Frontier", 1}, {"Frontier", 2}, {"", 1}}
	if len(got) != len(want) {
		t.Fatalf("hook fired %d times: %v", len(got), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("advance %d = %+v, want %+v", i, got[i], want[i])
		}
	}

	// Rejections and routing failures do not fire the hook.
	got = got[:0]
	if err := r.Ingest(Sample{System: "Frontier", Hour: -1, Power: 1}); err == nil {
		t.Fatal("invalid sample accepted")
	}
	if len(got) != 0 {
		t.Fatalf("hook fired on rejection: %v", got)
	}

	// Deregistering the hook (nil) stops notifications.
	r.OnAdvance(nil)
	if err := r.Ingest(Sample{System: "Frontier", Hour: 2, Power: 1e6}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("hook fired after deregistration: %v", got)
	}
}
