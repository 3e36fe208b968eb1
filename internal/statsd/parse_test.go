package statsd

import (
	"bytes"
	"testing"
)

func TestParseLine(t *testing.T) {
	for _, tc := range []struct {
		line   string
		bucket string
		value  float64
		typ    MetricType
		rate   float64
	}{
		{"fleet.Frontier.power:333|g", "fleet.Frontier.power", 333, Gauge, 1},
		{"fleet.Frontier.power:21500000|g|@0.1", "fleet.Frontier.power", 21.5e6, Gauge, 0.1},
		{"fleet.Marconi.power:2|c|@0.25", "fleet.Marconi.power", 2, Counter, 0.25},
		{"fleet.Marconi.power:-4|c", "fleet.Marconi.power", -4, Counter, 1},
		{"glork:320|ms", "glork", 320, Timer, 1},
		{"a.key.with-0.dash:4|c", "a.key.with-0.dash", 4, Counter, 1},
		{"fleet.X.power:3.5|g", "fleet.X.power", 3.5, Gauge, 1},
		{"fleet.X.power:+4|g", "fleet.X.power", 4, Gauge, 1},
		{"fleet.X.power:2.15e7|g", "fleet.X.power", 2.15e7, Gauge, 1},
		{"fleet.X.power:5E2|g|@1", "fleet.X.power", 500, Gauge, 1},
		{"fleet.X.power:1e-3|g", "fleet.X.power", 0.001, Gauge, 1},
		{"fleet.X.power:.5|g", "fleet.X.power", 0.5, Gauge, 1},
		{"fleet.X.power:10.|g", "fleet.X.power", 10, Gauge, 1},
		// Underflows flush to zero rather than failing: a feed emitting
		// denormal-tiny watts is sending zero power.
		{"fleet.X.power:1e-999|g", "fleet.X.power", 0, Gauge, 1},
	} {
		var m Metric
		if err := ParseLine([]byte(tc.line), &m); err != nil {
			t.Errorf("ParseLine(%q): %v", tc.line, err)
			continue
		}
		if string(m.Bucket) != tc.bucket || m.Value != tc.value || m.Type != tc.typ || m.Rate != tc.rate {
			t.Errorf("ParseLine(%q) = {%q %v %v %v}, want {%q %v %v %v}",
				tc.line, m.Bucket, m.Value, m.Type, m.Rate, tc.bucket, tc.value, tc.typ, tc.rate)
		}
	}
}

func TestParseLineRejects(t *testing.T) {
	for _, line := range []string{
		"",
		":333|g",                     // no bucket
		"fleet.X.power",              // no value or type
		"fleet.X.power:333",          // no type
		"fleet.X.power:|g",           // empty value
		"fleet.X.power:abc|g",        // non-numeric
		"fleet.X.power:3..3|g",       // double dot
		"fleet.X.power:3e|g",         // dangling exponent
		"fleet.X.power:1e999|g",      // overflows to +Inf
		"fleet.X.power:333|x",        // unknown type
		"fleet.X.power:333|gauge",    // long type token
		"fleet.X.power:333|",         // empty type
		"fleet.X.power:333|g|0.5",    // rate without @
		"fleet.X.power:333|g|@",      // empty rate
		"fleet.X.power:333|g|@0",     // rate out of range
		"fleet.X.power:333|g|@1.5",   // rate out of range
		"fleet.X.power:333|g|@-0.5",  // negative rate
		"fleet.X.power:333|g|@0.5|z", // trailing field
		"fle et.X.power:333|g",       // space in bucket
		"fleet.\x01.power:333|g",     // control byte in bucket
		"NaN:NaN|g",                  // the grammar has no NaN token
		"fleet.X.power:nan|g",
		"fleet.X.power:inf|g",
	} {
		var m Metric
		if err := ParseLine([]byte(line), &m); err == nil {
			t.Errorf("ParseLine(%q) accepted, want error (got %+v)", line, m)
		}
	}
}

func TestParsePacketMultiline(t *testing.T) {
	packet := []byte("fleet.Frontier.power:100|g\nfleet.Marconi.power:200|g|@0.5\r\n\nbogus line\nfleet.Frontier.power:300|c\n")
	var got []Metric
	malformed := ParsePacket(packet, func(m Metric) {
		m.Bucket = bytes.Clone(m.Bucket)
		got = append(got, m)
	})
	if malformed != 1 {
		t.Errorf("malformed = %d, want 1", malformed)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d metrics, want 3: %+v", len(got), got)
	}
	if string(got[1].Bucket) != "fleet.Marconi.power" || got[1].Rate != 0.5 {
		t.Errorf("second metric wrong: %+v", got[1])
	}
	if got[2].Type != Counter || got[2].Value != 300 {
		t.Errorf("third metric wrong: %+v", got[2])
	}
}

func TestParsePacketTruncated(t *testing.T) {
	// A datagram cut mid-line: the whole lines parse, the tail counts
	// as exactly one malformed line.
	full := []byte("fleet.A.power:1|g\nfleet.B.power:2|g\nfleet.C.power:3|")
	var n int
	malformed := ParsePacket(full, func(Metric) { n++ })
	if n != 2 || malformed != 1 {
		t.Errorf("parsed %d / malformed %d, want 2 / 1", n, malformed)
	}
}

func TestSystemOf(t *testing.T) {
	for _, tc := range []struct {
		bucket string
		system string
		ok     bool
	}{
		{"fleet.Frontier.power", "Frontier", true},
		{"fleet.a.b.power", "a.b", true}, // dotted system names round-trip
		{"fleet..power", "", false},      // empty system
		{"fleet.power", "", false},
		{"flee.Frontier.power", "", false},
		{"fleet.Frontier.powe", "", false},
		{"Frontier", "", false},
		{"", "", false},
	} {
		sys, ok := systemOf([]byte(tc.bucket))
		if ok != tc.ok || (ok && string(sys) != tc.system) {
			t.Errorf("systemOf(%q) = %q, %v; want %q, %v", tc.bucket, sys, ok, tc.system, tc.ok)
		}
	}
}

// TestParseZeroAlloc pins the acceptance bar directly: parsing a
// multi-line datagram allocates nothing, independent of what the gated
// benchmark reports.
func TestParseZeroAlloc(t *testing.T) {
	packet := []byte("fleet.Frontier.power:21500000|g|@0.1\nfleet.Marconi.power:9800000|g\nfleet.Polaris.power:172|c\n")
	var sink float64
	emit := func(m Metric) { sink += m.Value }
	if avg := testing.AllocsPerRun(200, func() {
		ParsePacket(packet, emit)
	}); avg != 0 {
		t.Errorf("ParsePacket allocates %.1f per packet, want 0", avg)
	}
	_ = sink
}
