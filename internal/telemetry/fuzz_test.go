package telemetry

import (
	"math"
	"strings"
	"testing"

	"thirstyflops/internal/series"
)

// FuzzDecodeSamples hardens the live-ingest decoder and the full ingest
// path behind it: arbitrary bodies must never panic, and whatever
// samples survive decoding and ingestion must never leak NaN/Inf (or
// negative) energy into a materialized Series window.
func FuzzDecodeSamples(f *testing.F) {
	f.Add(`{"hour": 0, "power_w": 21500000}`)
	f.Add(`{"system": "Frontier", "hour": 3, "power_w": 1.5e7}`)
	f.Add("{\"hour\":0,\"power_w\":100}\n{\"hour\":1,\"power_w\":200}\n")
	f.Add(`[{"hour":0,"power_w":1},{"hour":1,"power_w":2}]`)
	f.Add("{\n  \"hour\": 2,\n  \"power_w\": 5\n}")
	f.Add(`{"hour": 0, "power_w": -1}`)
	f.Add(`{"hour": 1e99, "power_w": 1}`)
	f.Add(`{"hour": 0, "power_w": 1} trailing`)
	f.Add(`[{"hour":0,"power_w":1}] [{"hour":1,"power_w":1}]`)
	f.Add(`{"bogus": true}`)
	f.Add(`12`)
	f.Add(`"str"`)
	f.Add(``)
	f.Add(`[]`)
	f.Add("\n\n\n")
	f.Add(strings.Repeat(`{"hour":0,"power_w":1}`+"\n", 50))
	f.Fuzz(func(t *testing.T, data string) {
		samples, err := DecodeSamples(strings.NewReader(data), 1000)
		if err != nil {
			return
		}
		if len(samples) == 0 {
			// The only zero-sample success is a well-formed empty array.
			if !strings.HasPrefix(strings.TrimLeft(data, " \t\r\n"), "[") {
				t.Fatal("DecodeSamples returned no samples and no error")
			}
			return
		}
		stream, sErr := NewStream("", 0, 48)
		if sErr != nil {
			t.Fatal(sErr)
		}
		for _, s := range samples {
			_ = stream.Ingest(s) // rejections are fine; panics are not
		}
		w := stream.Window()
		for i, ok := range w.Observed {
			e := float64(w.Energy[i])
			if ok && (math.IsNaN(e) || math.IsInf(e, 0) || e < 0) {
				t.Fatalf("hour %d: bad energy %v leaked into the window", w.Lo+i, e)
			}
		}
		// The spliced series a live assessment would serve must stay
		// finite too.
		base, bErr := series.New(1.2, 48)
		if bErr != nil {
			t.Fatal(bErr)
		}
		spliced := w.SpliceInto(base)
		for h, e := range spliced.Energy {
			if v := float64(e); math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("spliced hour %d: bad energy %v", h, v)
			}
		}
	})
}
