package thirstyflops

// Degraded-mode serving tests: the disk tier trips its circuit breaker
// under injected faults, the Engine keeps answering (memory-only,
// drop-and-count, bit-identical results), the half-open probe restores
// disk serving when the faults clear, and a warm restart after recovery
// is bit-identical to the healthy baseline.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"thirstyflops/internal/breaker"
	"thirstyflops/internal/faultinject"
)

// resilientOptions wires a short-fused breaker suitable for tests: one
// failure trips, a short cooldown admits probes quickly.
func resilientOptions(in *faultinject.Injector) []Option {
	return []Option{
		WithStoreFS(in),
		WithDiskBreaker(breaker.Options{Threshold: 1, Cooldown: 20 * time.Millisecond}),
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestEngineDegradedModeServing(t *testing.T) {
	dir := persistDir(t)
	in := faultinject.New(faultinject.OS{}, 1)
	eng := newPersistentEngine(t, dir, resilientOptions(in)...)

	seed := func(s uint64) *uint64 { return &s }
	baselineReq := AssessRequest{System: "Frontier", Seed: seed(11)}
	_, baselineJSON := assessJSON(t, eng, baselineReq)
	if eng.DiskDegraded() {
		t.Fatal("healthy engine reports degraded")
	}
	// Let the asynchronous write-through land before the disk dies: a
	// record still queued when faults hit is legitimately dropped
	// (drop-and-count), and this test wants the baseline durable.
	waitFor(t, "baseline record to flush", func() bool {
		d := eng.CacheStats().Disk
		return d.Appends >= 1 && d.Pending == 0
	})

	// The disk dies: every write and every rehabilitation truncate fails.
	// The next write-through trips the breaker via the store's async
	// write-error callback.
	in.Add(faultinject.Rule{Op: faultinject.OpWrite, Prob: 1})
	in.Add(faultinject.Rule{Op: faultinject.OpTruncate, Prob: 1})
	trippingReq := AssessRequest{System: "Fugaku", Seed: seed(12)}
	trippingRes, trippingJSON := assessJSON(t, eng, trippingReq)
	if trippingRes.Cached {
		t.Fatal("first Fugaku assess reported cached")
	}
	waitFor(t, "breaker to trip", eng.DiskDegraded)

	// Degraded serving: the memoized result still answers (from memory),
	// and a brand-new configuration still assesses correctly with the
	// disk tier bypassed. Bit-identity is checked against a memory-only
	// engine computing the same request from scratch.
	memoRes, memoJSON := assessJSON(t, eng, trippingReq)
	if !memoRes.Cached {
		t.Fatal("degraded engine missed its own memo")
	}
	memoRes.Cached = false
	renorm, _ := json.Marshal(memoRes)
	if !bytes.Equal(renorm, trippingJSON) {
		t.Fatalf("degraded memo result diverged:\n%s\n%s", renorm, trippingJSON)
	}
	_ = memoJSON

	freshReq := AssessRequest{System: "Polaris", Seed: seed(13)}
	_, degradedJSON := assessJSON(t, eng, freshReq)
	memOnly := NewEngine()
	_, wantJSON := assessJSON(t, memOnly, freshReq)
	if !bytes.Equal(degradedJSON, wantJSON) {
		t.Fatalf("degraded result not bit-identical to healthy compute:\n%s\n%s", degradedJSON, wantJSON)
	}

	st := eng.CacheStats()
	if st.Disk == nil || !st.Disk.Degraded {
		t.Fatalf("CacheStats.Disk does not report degradation: %+v", st.Disk)
	}
	if st.Disk.Breaker == nil || st.Disk.Breaker.State == "closed" {
		t.Fatalf("breaker snapshot missing or closed while degraded: %+v", st.Disk.Breaker)
	}
	if st.Disk.WriteErrors == 0 {
		t.Fatal("no write errors counted despite injected faults")
	}

	// The disk comes back: the next disk access past the cooldown is a
	// half-open probe (a store.Sync that rehabilitates the wedged write
	// path), which closes the breaker and restores disk serving.
	in.Clear()
	probe := AssessRequest{System: "Marconi", Seed: seed(14)}
	probeSeed := uint64(14)
	waitFor(t, "breaker to close after faults cleared", func() bool {
		probeSeed++
		probe.Seed = &probeSeed // fresh fingerprint: forces a disk access
		if _, err := eng.Assess(context.Background(), probe); err != nil {
			t.Fatal(err)
		}
		return !eng.DiskDegraded()
	})
	st = eng.CacheStats()
	if st.Disk.Skips == 0 {
		t.Fatal("degraded interval recorded no skipped disk accesses")
	}
	if st.Disk.Breaker.Probes == 0 {
		t.Fatal("recovery happened without a half-open probe")
	}

	// Post-recovery write-through works again: a new assessment lands on
	// disk and a restarted engine serves the baseline from disk,
	// bit-identical, with disk hits observable.
	landReq := AssessRequest{System: "Frontier", Seed: seed(99)}
	_, landJSON := assessJSON(t, eng, landReq)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	warm := newPersistentEngine(t, dir, resilientOptions(in)...)
	defer warm.Close()
	warmRes, warmJSON := assessJSON(t, warm, baselineReq)
	if warmRes.Cached {
		t.Fatal("warm restart reported an in-memory hit for its first request")
	}
	if !bytes.Equal(warmJSON, baselineJSON) {
		t.Fatalf("warm-restart result diverged from healthy baseline:\n%s\n%s", warmJSON, baselineJSON)
	}
	_, warmLandJSON := assessJSON(t, warm, landReq)
	if !bytes.Equal(warmLandJSON, landJSON) {
		t.Fatal("post-recovery write-through did not survive the restart bit-identically")
	}
	if ws := warm.CacheStats(); ws.Disk.Hits < 2 {
		t.Fatalf("warm restart served %d disk hits, want >= 2", ws.Disk.Hits)
	}
}

func TestEngineAssessHookInjectsErrors(t *testing.T) {
	in := faultinject.New(faultinject.OS{}, 1,
		faultinject.Rule{Op: faultinject.OpAssess, Nth: 1, Path: "Frontier"})
	eng := NewEngine(WithAssessHook(func(system string) error {
		return in.Fire(faultinject.OpAssess, system)
	}))
	if _, err := eng.Assess(context.Background(), AssessRequest{System: "Frontier"}); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Assess err = %v, want injected", err)
	}
	// The rule fired once; the retry computes and memoizes normally.
	res, err := eng.Assess(context.Background(), AssessRequest{System: "Frontier"})
	if err != nil || res == nil {
		t.Fatalf("post-fault Assess: %v", err)
	}
	// Other systems never matched the path filter.
	if _, err := eng.Assess(context.Background(), AssessRequest{System: "Fugaku"}); err != nil {
		t.Fatalf("unmatched system failed: %v", err)
	}
}

func TestAssessBatchPanicContainment(t *testing.T) {
	eng := NewEngine(WithAssessHook(func(system string) error {
		if system == "Fugaku" {
			panic("poisoned config")
		}
		return nil
	}))
	reqs := []AssessRequest{
		{System: "Frontier"},
		{System: "Fugaku"},
		{System: "Polaris"},
	}
	results, err := eng.AssessMany(context.Background(), reqs)
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("joined error = %v, want a contained panic", err)
	}
	if results[0] == nil || results[2] == nil {
		t.Fatal("panicking unit took healthy units down with it")
	}
	if results[1] != nil {
		t.Fatal("panicking unit produced a result")
	}

	// A round run through the merge window, on the scheduler's own
	// worker goroutines, contains panics too.
	eng2 := NewEngine(WithGangWindow(time.Millisecond), WithAssessHook(func(system string) error {
		if system == "Fugaku" {
			panic("poisoned config")
		}
		return nil
	}))
	results, err = eng2.AssessMany(context.Background(), reqs)
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("merged-round joined error = %v, want a contained panic", err)
	}
	if results[0] == nil || results[2] == nil || results[1] != nil {
		t.Fatal("merged round mishandled the poisoned unit")
	}
}
