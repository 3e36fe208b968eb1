package store

// Benchmarks gated by `make bench` against BENCH.json.
// BenchmarkWarmStart is the headline: booting the index of a 10k-entry
// log is the fixed cost a restarted daemon pays to make every one of
// those entries answerable without recomputation — compare one Open of
// the whole store against 10,000 x BenchmarkEngineAssessColdIsolated
// (the per-entry recompute, gated at the repo root).

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"testing"
	"time"
)

// benchValue is sized like a compact record payload; the warm-start
// cost is dominated by frame scanning, which depends on record count
// and volume, not value semantics.
func benchValue(i, size int) []byte {
	v := make([]byte, size)
	binary.LittleEndian.PutUint64(v, uint64(i))
	return v
}

// buildStore populates a store file of n entries with `size`-byte
// values and closes it.
func buildStore(b *testing.B, path string, n, size int) {
	b.Helper()
	s, err := Open(path, Options{Schema: 1, QueueLen: 1024, BlockOnFull: true})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key-%06d", i)), benchValue(i, size)); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Sync(); err != nil {
		b.Fatal(err)
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStoreAppend prices one asynchronous Put on the writer's
// steady state: encode, queue, batch-drain to the buffered file.
func BenchmarkStoreAppend(b *testing.B) {
	path := filepath.Join(b.TempDir(), "append.log")
	s, err := Open(path, Options{Schema: 1, QueueLen: 1024, BlockOnFull: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	val := benchValue(7, 1024)
	var key [16]byte
	b.ReportAllocs()
	b.SetBytes(int64(len(val)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.LittleEndian.PutUint64(key[:], uint64(i))
		if err := s.Put(key[:], val); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := s.Sync(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkStoreGet prices one read from a flushed 10k-entry store —
// the per-request cost a warm daemon pays on a memo miss.
func BenchmarkStoreGet(b *testing.B) {
	path := filepath.Join(b.TempDir(), "get.log")
	const n = 10_000
	buildStore(b, path, n, 512)
	s, err := Open(path, Options{Schema: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := fmt.Sprintf("key-%06d", i%n)
		v, ok, err := s.Get([]byte(key))
		if err != nil || !ok || len(v) != 512 {
			b.Fatalf("Get(%s) = %d bytes, %v, %v", key, len(v), ok, err)
		}
	}
}

// BenchmarkWarmStart prices the warm boot itself: Open a 10k-entry log,
// scan and CRC-check every frame, and build the full in-memory index.
// After this one cost, each of the 10k entries costs one BenchmarkStoreGet
// instead of one BenchmarkEngineAssessColdIsolated.
func BenchmarkWarmStart(b *testing.B) {
	path := filepath.Join(b.TempDir(), "warm.log")
	const n = 10_000
	buildStore(b, path, n, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(path, Options{Schema: 1, FlushEvery: time.Hour})
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() != n {
			b.Fatalf("recovered %d entries, want %d", s.Len(), n)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
