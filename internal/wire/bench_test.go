package wire

import (
	"encoding/json"
	"testing"
)

// Encode-layer benchmarks behind the daemon's serving numbers: the wire
// codec against encoding/json on the same results, with and without the
// 8760-hour series. Gated by BENCH.json via `make bench`.

// BenchmarkWireEncodeResult prices one pooled binary encode of a plain
// result (scenarios + withdrawal, no series) — the zero-alloc hot path.
func BenchmarkWireEncodeResult(b *testing.B) {
	res := fullResult(b)
	res.Series = nil
	e := GetEncoder()
	defer PutEncoder(e)
	e.EncodeResult(res)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EncodeResult(res)
	}
}

// BenchmarkWireEncodeSeriesResult is the payload the codec exists for:
// a full-year series result framed as flat columns.
func BenchmarkWireEncodeSeriesResult(b *testing.B) {
	res := fullResult(b)
	e := GetEncoder()
	defer PutEncoder(e)
	e.EncodeResult(res)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EncodeResult(res)
	}
}

// BenchmarkJSONEncodeSeriesResult is the same full-year result through
// encoding/json — the baseline the wire ratio is measured against.
func BenchmarkJSONEncodeSeriesResult(b *testing.B) {
	res := fullResult(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireDecodeSeriesResult prices the client's side of a
// full-year frame.
func BenchmarkWireDecodeSeriesResult(b *testing.B) {
	frame := EncodeResult(fullResult(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeResult(frame); err != nil {
			b.Fatal(err)
		}
	}
}
