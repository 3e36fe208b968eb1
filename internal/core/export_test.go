package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"thirstyflops/internal/stats"
	"thirstyflops/internal/units"
	"thirstyflops/internal/weather"
	"thirstyflops/internal/wue"
)

func TestWriteSeriesCSV(t *testing.T) {
	a := mustAssess(t, "Polaris")
	var buf bytes.Buffer
	if err := a.WriteSeriesCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// system metadata + pue metadata + header + 8760 rows.
	if len(lines) != 3+stats.HoursPerYear {
		t.Fatalf("line count = %d, want %d", len(lines), 3+stats.HoursPerYear)
	}
	if !strings.Contains(lines[0], "system=Polaris") {
		t.Error("system metadata missing")
	}
	if !strings.Contains(lines[1], "pue=") {
		t.Error("pue metadata missing")
	}
	if !strings.HasPrefix(lines[2], "hour,energy_kwh") {
		t.Errorf("header wrong: %q", lines[2])
	}
	// Every data row has 6 comma-separated fields.
	for _, line := range lines[3:6] {
		if strings.Count(line, ",") != 5 {
			t.Errorf("row has wrong arity: %q", line)
		}
	}
}

// goldenSeriesCSV is the SHA-256 of Polaris's WriteSeriesCSV output for
// its bundled seed and year: 8,763 lines, every generator channel at its
// printed precision. It was recorded while a CSV reader still
// round-tripped the writer.
const goldenSeriesCSV = "b4972acd408490e932ee07bdb2345df7b63dfdb65b2986db7e1b04b169971c26"

func TestWriteSeriesCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := mustAssess(t, "Polaris").WriteSeriesCSV(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenSeriesCSV {
		t.Errorf("WriteSeriesCSV digest %s, want %s", got, goldenSeriesCSV)
	}
}

func TestTowerYearBalanceIntegration(t *testing.T) {
	// Drive the tower mass balance with assessed energy and site weather:
	// consumption and blowdown must be positive, and blowdown equals
	// evaporation over (cycles-1).
	cfg := mustConfig(t, "Frontier")
	a, err := cfg.Assess()
	if err != nil {
		t.Fatal(err)
	}
	wx := cfg.Site.HourlyYear(cfg.Seed)
	tower := wue.DefaultTower()
	bal, err := tower.YearBalance(a.Hourly.Energy, cfg.System.PUE, weather.WetBulbSeries(wx))
	if err != nil {
		t.Fatal(err)
	}
	if bal.Consumption() <= 0 || bal.Blowdown <= 0 {
		t.Fatal("degenerate annual balance")
	}
	ratio := float64(bal.Blowdown) / float64(bal.Evaporation)
	want := 1.0 / (tower.CyclesOfConcentration - 1)
	if ratio < want*0.999 || ratio > want*1.001 {
		t.Errorf("blowdown/evaporation = %v, want %v", ratio, want)
	}
	// Feed the tower's own blowdown into the withdrawal model: gross
	// withdrawal must exceed consumption by exactly the unreused blowdown.
	p := DefaultWithdrawalParams(bal.Blowdown)
	w, err := ComputeWithdrawal(bal.Consumption(), p)
	if err != nil {
		t.Fatal(err)
	}
	extra := float64(w.Gross) - float64(w.Consumption)
	wantExtra := float64(bal.Blowdown) * (1 - p.ReuseRate)
	if extra < wantExtra*0.999 || extra > wantExtra*1.001 {
		t.Errorf("withdrawal extra = %v, want %v", extra, wantExtra)
	}
}

func TestTowerYearBalanceErrors(t *testing.T) {
	tower := wue.DefaultTower()
	if _, err := tower.YearBalance(nil, 0.5, nil); err == nil {
		t.Error("invalid PUE accepted")
	}
	if _, err := tower.YearBalance(make([]units.KWh, 2), 1.2, nil); err == nil {
		t.Error("mismatched series accepted")
	}
	bad := wue.Tower{CyclesOfConcentration: 1}
	if _, err := bad.YearBalance(nil, 1.2, nil); err == nil {
		t.Error("invalid tower accepted")
	}
}
