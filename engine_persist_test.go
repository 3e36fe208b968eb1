package thirstyflops

// Warm-restart and crash-recovery tests for the Engine's persistence
// tier: a fresh Engine opened on a populated state directory must serve
// previously assessed configurations from disk — bit-identical, without
// recomputing — and a log torn at an arbitrary byte offset must recover
// to a valid prefix instead of panicking or serving garbage.

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkEngineWarmStartDisk prices a restarted daemon's first answer
// for a known configuration: open the persistence log, miss the fresh
// in-memory memo, and decode the year from disk. Compare against
// BenchmarkEngineAssessColdIsolated, the full recompute the disk hit
// replaces — both are gated in BENCH.json.
func BenchmarkEngineWarmStartDisk(b *testing.B) {
	dir := b.TempDir()
	seedEng := NewEngine(WithPersistence(dir))
	if err := seedEng.PersistenceError(); err != nil {
		b.Fatal(err)
	}
	req := AssessRequest{System: "Frontier"}
	if _, err := seedEng.Assess(context.Background(), req); err != nil {
		b.Fatal(err)
	}
	if err := seedEng.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := NewEngine(WithPersistence(dir))
		if err := eng.PersistenceError(); err != nil {
			b.Fatal(err)
		}
		res, err := eng.Assess(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if res.Cached {
			b.Fatal("fresh engine reported an in-memory hit")
		}
		if st := eng.CacheStats(); st.Disk.Hits != 1 {
			b.Fatalf("disk stats = %+v, want a disk hit", st.Disk)
		}
		if err := eng.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// persistDir returns a fresh state directory for one test.
func persistDir(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "state")
}

// newPersistentEngine builds an Engine on dir, failing the test if the
// disk tier did not open.
func newPersistentEngine(t *testing.T, dir string, opts ...Option) *Engine {
	t.Helper()
	eng := NewEngine(append([]Option{WithPersistence(dir)}, opts...)...)
	if err := eng.PersistenceError(); err != nil {
		t.Fatal(err)
	}
	return eng
}

// assessJSON runs one request and returns the result plus its canonical
// JSON encoding (the bit-identity comparison medium: every float lands
// in the JSON bit-exactly or not at all).
func assessJSON(t *testing.T, eng *Engine, req AssessRequest) (*AssessResult, []byte) {
	t.Helper()
	res, err := eng.Assess(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return res, raw
}

func TestEnginePersistenceWarmStart(t *testing.T) {
	dir := persistDir(t)
	reqs := []AssessRequest{
		{System: "Frontier", IncludeSeries: true},
		{System: "Marconi", Scenarios: true},
		{System: "Fugaku", Withdrawal: true},
	}

	eng1 := newPersistentEngine(t, dir)
	var before [][]byte
	for _, r := range reqs {
		_, raw := assessJSON(t, eng1, r)
		before = append(before, raw)
	}
	st := eng1.CacheStats()
	if st.Disk == nil {
		t.Fatal("no disk stats with persistence enabled")
	}
	if st.Disk.Hits != 0 || st.Disk.Misses == 0 {
		t.Fatalf("cold engine disk stats = %+v", st.Disk)
	}
	if err := eng1.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh Engine on the same directory must answer from disk: every
	// byte of every result identical, zero substrate activity (substrate
	// lookups only happen inside a real recompute).
	eng2 := newPersistentEngine(t, dir)
	defer eng2.Close()
	for i, r := range reqs {
		res, raw := assessJSON(t, eng2, r)
		if string(raw) != string(before[i]) {
			t.Errorf("request %d not bit-identical after restart:\n before %s\n after  %s", i, before[i], raw)
		}
		if res.Cached {
			// The in-memory memo is fresh; the disk tier fills it.
			t.Errorf("request %d claims an in-memory hit on a fresh engine", i)
		}
	}
	st = eng2.CacheStats()
	if st.Disk.Hits != uint64(len(reqs)) || st.Disk.Misses != 0 {
		t.Errorf("warm engine disk stats = %+v, want %d hits / 0 misses", st.Disk, len(reqs))
	}
	if sub := st.Substrate; sub.PlannedHits+sub.PlannedMisses+sub.UnplannedHits+sub.UnplannedMisses != 0 {
		t.Errorf("warm restart recomputed: substrate counters = %+v", sub)
	}
	if st.Disk.Recovered != len(reqs) {
		t.Errorf("recovered %d entries, want %d", st.Disk.Recovered, len(reqs))
	}
	// A disk-served year carries its intensities like a simulated one.
	for _, r := range reqs {
		cfg, err := r.resolveConfig()
		if err != nil {
			t.Fatal(err)
		}
		a, ok := eng2.diskLookup(cfg.Fingerprint())
		if !ok {
			t.Fatalf("%s: no disk record", r.System)
		}
		checkCarried(t, a, cfg.Scarcity)
	}
}

// TestEnginePersistenceDisabledCacheStillServesDisk covers the
// cache-disabled configuration (WithCache(0)): every request re-enters
// the compute path, so the disk tier must answer repeats.
func TestEnginePersistenceDisabledCacheStillServesDisk(t *testing.T) {
	dir := persistDir(t)
	eng1 := newPersistentEngine(t, dir, WithCache(0))
	_, first := assessJSON(t, eng1, AssessRequest{System: "Frontier"})
	if err := eng1.Close(); err != nil {
		t.Fatal(err)
	}

	eng2 := newPersistentEngine(t, dir, WithCache(0))
	defer eng2.Close()
	_, again := assessJSON(t, eng2, AssessRequest{System: "Frontier"})
	if string(first) != string(again) {
		t.Errorf("cache-disabled warm restart diverged:\n before %s\n after  %s", first, again)
	}
	if st := eng2.CacheStats(); st.Disk.Hits != 1 {
		t.Errorf("disk stats = %+v, want 1 hit", st.Disk)
	}
}

// TestEnginePersistenceCrashRecovery tears the log at randomized byte
// offsets and asserts warm-start bit-identity with the pre-crash cache:
// whatever survives recovery serves from disk, everything else
// recomputes, and either way every result is bit-identical to the
// original (the simulation is deterministic, so identity holds exactly
// when recovery never surfaces a partial record).
func TestEnginePersistenceCrashRecovery(t *testing.T) {
	dir := persistDir(t)
	reqs := []AssessRequest{
		{System: "Frontier"},
		{System: "Marconi"},
		{System: "Fugaku", IncludeSeries: true},
	}
	eng := newPersistentEngine(t, dir)
	var before [][]byte
	for _, r := range reqs {
		_, raw := assessJSON(t, eng, r)
		before = append(before, raw)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "assess.log")
	intact, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 8; trial++ {
		cut := rng.Intn(len(intact) + 1)
		crashDir := filepath.Join(t.TempDir(), "state")
		if err := os.MkdirAll(crashDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashDir, "assess.log"), intact[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		warm := newPersistentEngine(t, crashDir)
		for i, r := range reqs {
			_, raw := assessJSON(t, warm, r)
			if string(raw) != string(before[i]) {
				t.Errorf("cut=%d request %d diverged from pre-crash result", cut, i)
			}
		}
		st := warm.CacheStats()
		if st.Disk.Hits+st.Disk.Misses != uint64(len(reqs)) {
			t.Errorf("cut=%d disk outcomes = %+v, want %d total", cut, st.Disk, len(reqs))
		}
		if int(st.Disk.Hits) != st.Disk.Recovered {
			t.Errorf("cut=%d served %d from disk but recovered %d", cut, st.Disk.Hits, st.Disk.Recovered)
		}
		if err := warm.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEnginePersistenceSchemaInvalidation proves a log written under a
// foreign schema (or arbitrary bytes in place of a log) is discarded,
// not misread.
func TestEnginePersistenceSchemaInvalidation(t *testing.T) {
	dir := persistDir(t)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "assess.log"), []byte("not a store file, definitely long enough"), 0o644); err != nil {
		t.Fatal(err)
	}
	eng := newPersistentEngine(t, dir)
	defer eng.Close()
	if st := eng.CacheStats(); st.Disk.Recovered != 0 {
		t.Errorf("recovered %d entries from garbage", st.Disk.Recovered)
	}
	if _, err := eng.Assess(context.Background(), AssessRequest{System: "Frontier"}); err != nil {
		t.Fatal(err)
	}
}
