package wire

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"thirstyflops"
)

// fullResult assesses Frontier with every optional section attached, so
// round trips cover scenarios, withdrawal, and the hourly series.
func fullResult(t testing.TB) *thirstyflops.AssessResult {
	t.Helper()
	eng := thirstyflops.NewEngine()
	res, err := eng.Assess(context.Background(), thirstyflops.AssessRequest{
		System: "Frontier", Scenarios: true, Withdrawal: true, IncludeSeries: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// liveResult assesses against an observed window so the LiveInfo
// section encodes too.
func liveResult(t testing.TB) *thirstyflops.AssessResult {
	t.Helper()
	stream, err := thirstyflops.NewStream("", 0, 336)
	if err != nil {
		t.Fatal(err)
	}
	eng := thirstyflops.NewEngine(thirstyflops.WithLiveStreams(thirstyflops.NewStreamRegistry(stream)))
	for h := 0; h < 24; h++ {
		if _, err := eng.Ingest(thirstyflops.Sample{Hour: h, Power: 2.1e7}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.Assess(context.Background(), thirstyflops.AssessRequest{
		System: "Frontier", Source: thirstyflops.SourceLive,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRoundTripBitIdentity pins the codec's core contract: the same
// AssessResult in, identical fields out, bit-for-bit on every float —
// and identical to what the JSON path reproduces, so the two codecs can
// never drift apart silently.
func TestRoundTripBitIdentity(t *testing.T) {
	for _, tc := range []struct {
		name string
		res  *thirstyflops.AssessResult
	}{
		{"full", fullResult(t)},
		{"live", liveResult(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frame := EncodeResult(tc.res)
			back, err := DecodeResult(frame)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(tc.res, back) {
				t.Fatalf("wire round trip diverged:\n in: %+v\nout: %+v", tc.res, back)
			}
			// Spot-check a float's bits explicitly: DeepEqual would
			// accept -0 vs +0, bit identity does not.
			if math.Float64bits(tc.res.LifetimeTotalL) != math.Float64bits(back.LifetimeTotalL) {
				t.Fatalf("LifetimeTotalL bits changed: %x -> %x",
					math.Float64bits(tc.res.LifetimeTotalL), math.Float64bits(back.LifetimeTotalL))
			}

			// The JSON path must reproduce the same value the wire path
			// does.
			blob, err := json.Marshal(tc.res)
			if err != nil {
				t.Fatal(err)
			}
			var viaJSON thirstyflops.AssessResult
			if err := json.Unmarshal(blob, &viaJSON); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&viaJSON, back) {
				t.Fatalf("wire and JSON round trips disagree:\njson: %+v\nwire: %+v", &viaJSON, back)
			}
		})
	}
}

// TestEncodePooledReuse exercises the pooled encoder across results of
// different shapes: reuse must not leak state between frames.
func TestEncodePooledReuse(t *testing.T) {
	full := fullResult(t)
	live := liveResult(t)
	e := GetEncoder()
	defer PutEncoder(e)
	for i := 0; i < 3; i++ {
		for _, res := range []*thirstyflops.AssessResult{full, live} {
			back, err := DecodeResult(e.EncodeResult(res))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, back) {
				t.Fatalf("round %d diverged after encoder reuse", i)
			}
		}
	}
}

// TestEncodeHotPathZeroAlloc asserts the pooled encode path stops
// allocating once its buffer has grown to the working frame size — the
// property that keeps the daemon's wire responses GC-quiet under load.
func TestEncodeHotPathZeroAlloc(t *testing.T) {
	res := fullResult(t)
	e := GetEncoder()
	defer PutEncoder(e)
	e.EncodeResult(res) // grow the retained buffer
	if allocs := testing.AllocsPerRun(100, func() {
		e.EncodeResult(res)
	}); allocs != 0 {
		t.Fatalf("warm EncodeResult allocates %.0f times per frame, want 0", allocs)
	}
}

// TestDecodeRejectsCorruptFrames walks the deterministic corruption
// cases (the fuzzer explores beyond these).
func TestDecodeRejectsCorruptFrames(t *testing.T) {
	frame := EncodeResult(fullResult(t))
	for _, tc := range []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"empty", func(f []byte) []byte { return nil }},
		{"short header", func(f []byte) []byte { return f[:4] }},
		{"bad magic", func(f []byte) []byte { f[0] = 'X'; return f }},
		{"future schema", func(f []byte) []byte { f[3] = Schema + 1; return f }},
		{"length overruns frame", func(f []byte) []byte { f[4]++; return f }},
		{"truncated payload", func(f []byte) []byte { return f[:len(f)/2] }},
		{"trailing bytes", func(f []byte) []byte { return append(f, 0) }},
		{"unknown flags", func(f []byte) []byte { f[headerLen] |= 0x80; return f }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mut(append([]byte(nil), frame...))
			if tc.name == "length overruns frame" || tc.name == "trailing bytes" {
				// keep the declared length self-consistent cases honest:
				// these two corrupt the prefix/frame relationship itself.
				_ = mutated
			}
			if _, err := DecodeResult(mutated); err == nil {
				t.Fatal("corrupt frame decoded without error")
			}
		})
	}
}

// TestSchemaPinsResultShape fails when thirstyflops.AssessResult gains,
// loses, or renames a field without this codec (and Schema) being
// revisited: the wire layout encodes fields positionally, so silent
// struct drift would corrupt every frame.
func TestSchemaPinsResultShape(t *testing.T) {
	want := []string{
		"System", "Site", "Region", "Seed", "Year", "Years",
		"EnergyKWh", "DirectL", "IndirectL", "OperationalL", "DirectShare", "CarbonKg",
		"WaterIntensity", "AdjustedIntensity",
		"EmbodiedL", "LifetimeTotalL", "EmbodiedShares",
		"Scenarios", "Withdrawal", "Series", "Source", "Live", "Cached",
	}
	rt := reflect.TypeOf(thirstyflops.AssessResult{})
	var got []string
	for i := 0; i < rt.NumField(); i++ {
		got = append(got, rt.Field(i).Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AssessResult fields changed — update internal/wire (and bump Schema if the layout moved):\n got %v\nwant %v", got, want)
	}
}
