package telemetry

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"thirstyflops/internal/units"
)

func sampleLog() PowerLog {
	return PowerLog{
		System:  "TestSys",
		Year:    2023,
		Samples: []units.Watts{1000, 2000, 3000, 4000},
	}
}

func TestValidate(t *testing.T) {
	if err := sampleLog().Validate(); err != nil {
		t.Errorf("valid log rejected: %v", err)
	}
	if err := (PowerLog{System: "x"}).Validate(); err == nil {
		t.Error("empty log accepted")
	}
	if err := (PowerLog{Samples: []units.Watts{1}}).Validate(); err == nil {
		t.Error("nameless log accepted")
	}
	bad := sampleLog()
	bad.Samples[2] = -5
	if err := bad.Validate(); err == nil {
		t.Error("negative power accepted")
	}
}

func TestEnergy(t *testing.T) {
	// 1+2+3+4 kW over one hour each = 10 kWh.
	if got := sampleLog().Energy(); math.Abs(float64(got)-10) > 1e-9 {
		t.Errorf("Energy = %v, want 10 kWh", got)
	}
	he := sampleLog().HourlyEnergy()
	if len(he) != 4 || math.Abs(float64(he[1])-2) > 1e-12 {
		t.Errorf("HourlyEnergy = %v", he)
	}
}

func TestMeanPower(t *testing.T) {
	if got := sampleLog().MeanPower(); math.Abs(float64(got)-2500) > 1e-9 {
		t.Errorf("MeanPower = %v, want 2500", got)
	}
	if got := (PowerLog{}).MeanPower(); got != 0 {
		t.Errorf("empty MeanPower = %v", got)
	}
}

func TestMonthlyEnergyConservation(t *testing.T) {
	// A constant year-long 1 kW log: monthly energies must sum to 8760 kWh
	// and January (744 h) must carry 744 kWh.
	samples := make([]units.Watts, 8760)
	for i := range samples {
		samples[i] = 1000
	}
	l := PowerLog{System: "x", Year: 2023, Samples: samples}
	ms := l.MonthlyEnergy()
	if len(ms) != 12 {
		t.Fatalf("months = %d", len(ms))
	}
	var sum float64
	for _, m := range ms {
		sum += float64(m)
	}
	if math.Abs(sum-8760) > 1e-6 {
		t.Errorf("monthly sum = %v, want 8760", sum)
	}
	if math.Abs(float64(ms[0])-744) > 1e-6 {
		t.Errorf("January = %v, want 744", ms[0])
	}
}

func TestResample(t *testing.T) {
	l := sampleLog()
	r := l.Resample(2)
	if len(r.Samples) != 2 {
		t.Fatalf("resampled len = %d, want 2", len(r.Samples))
	}
	if float64(r.Samples[0]) != 1500 || float64(r.Samples[1]) != 3500 {
		t.Errorf("resampled = %v", r.Samples)
	}
	// Trailing partial window.
	l2 := PowerLog{System: "x", Samples: []units.Watts{2, 4, 6}}
	r2 := l2.Resample(2)
	if len(r2.Samples) != 2 || float64(r2.Samples[1]) != 6 {
		t.Errorf("partial window wrong: %v", r2.Samples)
	}
	// Factor <= 1 copies without aliasing.
	c := l.Resample(1)
	c.Samples[0] = 99
	if l.Samples[0] == 99 {
		t.Error("Resample(1) aliased the source")
	}
}

func TestResamplePreservesMeanPower(t *testing.T) {
	l := PowerLog{System: "x", Samples: []units.Watts{10, 20, 30, 40, 50, 60}}
	if got, want := l.Resample(3).MeanPower(), l.MeanPower(); math.Abs(float64(got-want)) > 1e-9 {
		t.Errorf("resample changed mean power: %v vs %v", got, want)
	}
}

// goldenCSV is the SHA-256 of sampleLog's WriteCSV output. It was
// recorded while a CSV reader still round-tripped the writer, so it pins
// the format that reader accepted byte for byte.
const goldenCSV = "e70d67dd048dca3ea20f85e17ab67b0915cb2935fee606509b4f701cd5db5cb7"

func TestWriteCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleLog().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenCSV {
		t.Errorf("WriteCSV digest %s, want %s\n%s", got, goldenCSV, buf.String())
	}
}

// TestCSVRoundTrip parses WriteCSV's output back and checks the metadata
// and every sample at the printed precision.
func TestCSVRoundTrip(t *testing.T) {
	l := PowerLog{System: "Frontier", Year: 2024, Samples: make([]units.Watts, 200)}
	for i := range l.Samples {
		l.Samples[i] = units.Watts(2.1e7 + 1234.5678*float64(i))
	}
	var buf bytes.Buffer
	if err := l.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if lines[0] != "# system=Frontier year=2024" || lines[1] != "hour,power_w" {
		t.Errorf("header %q", lines[:2])
	}
	rows := lines[2:]
	if len(rows) != len(l.Samples) {
		t.Fatalf("%d rows, want %d", len(rows), len(l.Samples))
	}
	for i, row := range rows {
		hour, power, ok := strings.Cut(row, ",")
		p, err := strconv.ParseFloat(power, 64)
		if !ok || err != nil || hour != strconv.Itoa(i) || math.Abs(p-float64(l.Samples[i])) > 1e-3 {
			t.Errorf("row %d = %q, want power %v", i, row, l.Samples[i])
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	l := sampleLog()
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got PowerLog
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, l) {
		t.Errorf("JSON round trip = %+v, want %+v", got, l)
	}
}

func TestPowerLogToSeries(t *testing.T) {
	l := sampleLog()
	n := len(l.Samples)
	wue := make([]units.LPerKWh, n)
	ewf := make([]units.LPerKWh, n)
	carbon := make([]units.GCO2PerKWh, n)
	for i := range wue {
		wue[i], ewf[i], carbon[i] = 2, 3, 400
	}
	s, err := l.Series(1.5, wue, ewf, carbon)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != n || s.PUE != 1.5 {
		t.Fatalf("series shape wrong: %+v", s)
	}
	// 1000 W over one hour is 1 kWh.
	if math.Abs(float64(s.Energy[0])-1) > 1e-12 {
		t.Errorf("energy[0] = %v, want 1 kWh", s.Energy[0])
	}
	if s.Totals().Energy != l.Energy() {
		t.Error("series energy disagrees with log energy")
	}

	// Misaligned intensity channels are rejected at construction.
	if _, err := l.Series(1.5, wue[:2], ewf, carbon); err == nil {
		t.Error("misaligned intensity channels accepted")
	}
	bad := PowerLog{System: "x", Samples: []units.Watts{-1}}
	if _, err := bad.Series(1.5, wue[:1], ewf[:1], carbon[:1]); err == nil {
		t.Error("invalid log converted")
	}
}
