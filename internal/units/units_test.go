package units

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestLitersConversions(t *testing.T) {
	l := Liters(LitersPerGallon)
	if !almostEqual(l.Gallons(), 1, 1e-12) {
		t.Errorf("Gallons() = %v, want 1", l.Gallons())
	}
	if !almostEqual(Liters(2e6).Megaliters(), 2, 1e-12) {
		t.Errorf("Megaliters() = %v, want 2", Liters(2e6).Megaliters())
	}
}

func TestLitersString(t *testing.T) {
	tests := []struct {
		v    Liters
		want string
	}{
		{Liters(0.5), "0.50 L"},
		{Liters(1500), "1.50 kL"},
		{Liters(2.5e6), "2.50 ML"},
		{Liters(3e9), "3.00 GL"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("Liters(%v).String() = %q, want %q", float64(tt.v), got, tt.want)
		}
	}
}

func TestKWhConversions(t *testing.T) {
	e := KWh(1e6)
	if !almostEqual(e.MWh(), 1000, 1e-9) {
		t.Errorf("MWh() = %v, want 1000", e.MWh())
	}
	if !almostEqual(e.GWh(), 1, 1e-12) {
		t.Errorf("GWh() = %v, want 1", e.GWh())
	}
	if !almostEqual(KWh(1).Joules(), 3.6e6, 1e-6) {
		t.Errorf("Joules() = %v, want 3.6e6", KWh(1).Joules())
	}
}

func TestWattsEnergyOver(t *testing.T) {
	// 2 MW for 24 hours = 48 MWh = 48000 kWh.
	got := MW(2).EnergyOver(24)
	if !almostEqual(float64(got), 48000, 1e-9) {
		t.Errorf("EnergyOver = %v, want 48000", got)
	}
	if !almostEqual(float64(Watts(1e3).EnergyOver(1)), 1, 1e-12) {
		t.Errorf("1kW over 1h = %v, want 1 kWh", Watts(1e3).EnergyOver(1))
	}
}

func TestWattsString(t *testing.T) {
	tests := []struct {
		v    Watts
		want string
	}{
		{Watts(500), "500.0 W"},
		{Watts(2.5e3), "2.50 kW"},
		{MW(21), "21.00 MW"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestCelsiusFahrenheit(t *testing.T) {
	if !almostEqual(Celsius(0).Fahrenheit(), 32, 1e-12) {
		t.Errorf("0C = %vF, want 32", Celsius(0).Fahrenheit())
	}
	if !almostEqual(Celsius(100).Fahrenheit(), 212, 1e-12) {
		t.Errorf("100C = %vF, want 212", Celsius(100).Fahrenheit())
	}
}

func TestRelativeHumidityClamp(t *testing.T) {
	tests := []struct {
		in, want RelativeHumidity
	}{
		{-5, 0},
		{0, 0},
		{55, 55},
		{100, 100},
		{130, 100},
	}
	for _, tt := range tests {
		if got := tt.in.Clamp(); got != tt.want {
			t.Errorf("Clamp(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestAreaAndCapacity(t *testing.T) {
	if !almostEqual(SquareMM(826).SquareCM(), 8.26, 1e-12) {
		t.Errorf("826mm2 = %v cm2, want 8.26", SquareMM(826).SquareCM())
	}
	if !almostEqual(PBytes(679).PB(), 679, 1e-9) {
		t.Errorf("PBytes(679).PB() = %v, want 679", PBytes(679).PB())
	}
	if !almostEqual(GB(1.5e3).TB(), 1.5, 1e-12) {
		t.Errorf("GB(1500).TB() = %v", GB(1.5e3).TB())
	}
	if got := PBytes(679).String(); got != "679.0 PB" {
		t.Errorf("String() = %q, want 679.0 PB", got)
	}
}

func TestIntensityTimes(t *testing.T) {
	w := LPerKWh(2.5).Times(KWh(100))
	if !almostEqual(float64(w), 250, 1e-12) {
		t.Errorf("2.5 L/kWh * 100 kWh = %v, want 250 L", w)
	}
	c := GCO2PerKWh(400).Times(KWh(10))
	if !almostEqual(float64(c), 4000, 1e-12) {
		t.Errorf("400 g/kWh * 10 kWh = %v, want 4000 g", c)
	}
}

func TestPUEValid(t *testing.T) {
	if PUE(0.9).Valid() {
		t.Error("PUE 0.9 should be invalid")
	}
	if !PUE(1.0).Valid() || !PUE(1.65).Valid() {
		t.Error("PUE >= 1 should be valid")
	}
}

func TestGramsCO2String(t *testing.T) {
	if got := GramsCO2(2.5e6).String(); got != "2.50 tCO2e" {
		t.Errorf("String() = %q", got)
	}
	if got := GramsCO2(1500).String(); got != "1.50 kgCO2e" {
		t.Errorf("String() = %q", got)
	}
}

// Property: intensity scaling is linear in energy.
func TestIntensityLinearityProperty(t *testing.T) {
	f := func(wi, e1, e2 float64) bool {
		wi = math.Mod(math.Abs(wi), 100)
		e1 = math.Mod(math.Abs(e1), 1e6)
		e2 = math.Mod(math.Abs(e2), 1e6)
		lhs := LPerKWh(wi).Times(KWh(e1 + e2))
		rhs := LPerKWh(wi).Times(KWh(e1)) + LPerKWh(wi).Times(KWh(e2))
		return almostEqual(float64(lhs), float64(rhs), 1e-6*math.Max(1, float64(lhs)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: gallon round-trip preserves volume.
func TestGallonRoundTripProperty(t *testing.T) {
	f := func(v float64) bool {
		v = math.Mod(math.Abs(v), 1e12)
		l := Liters(v)
		back := l.Gallons() * LitersPerGallon
		return almostEqual(back, v, 1e-6*math.Max(1, v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Clamp is idempotent and always lands in [0,100].
func TestClampProperty(t *testing.T) {
	f := func(h float64) bool {
		c := RelativeHumidity(h).Clamp()
		return c >= 0 && c <= 100 && c.Clamp() == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringsNonEmpty(t *testing.T) {
	// Smoke check every Stringer produces something sensible.
	ss := []string{
		Liters(1).String(), KWh(1).String(), Watts(1).String(),
		Celsius(20).String(), GB(10).String(), GramsCO2(5).String(),
		LPerKWh(1).String(), GCO2PerKWh(1).String(),
	}
	for _, s := range ss {
		if strings.TrimSpace(s) == "" {
			t.Error("empty String() output")
		}
	}
}

func TestLitersStringNegative(t *testing.T) {
	if got := Liters(-25.79e9).String(); got != "-25.79 GL" {
		t.Errorf("negative volume String = %q, want -25.79 GL", got)
	}
	if got := Liters(-500).String(); got != "-500.00 L" {
		t.Errorf("negative small volume String = %q", got)
	}
}
