// Package units defines the typed physical quantities used throughout
// ThirstyFLOPS: water volumes, energy, power, temperatures, areas, data
// capacities, and the derived sustainability intensities (L/kWh, gCO2/kWh).
//
// Every quantity is a defined float64 type so the compiler rejects unit
// mix-ups such as adding litres to kilowatt-hours. Arithmetic that crosses
// unit boundaries goes through explicit, documented constructors and
// conversion methods.
package units

import (
	"fmt"
	"math"
)

// Liters is a volume of water in litres. All water-footprint accounting in
// ThirstyFLOPS is expressed in litres; helpers convert to the gallon and
// megalitre views used in the paper's motivation section.
type Liters float64

// Common volume scale factors.
const (
	LitersPerGallon    = 3.785411784
	LitersPerMegaliter = 1e6
)

// Gallons converts the volume to US gallons.
func (l Liters) Gallons() float64 { return float64(l) / LitersPerGallon }

// Megaliters converts the volume to megalitres (10^6 L).
func (l Liters) Megaliters() float64 { return float64(l) / LitersPerMegaliter }

// String renders the volume with an automatically chosen SI-ish scale;
// negative volumes (savings deltas) keep their sign.
func (l Liters) String() string {
	v := float64(l)
	mag := math.Abs(v)
	switch {
	case mag >= 1e9:
		return fmt.Sprintf("%.2f GL", v/1e9)
	case mag >= 1e6:
		return fmt.Sprintf("%.2f ML", v/1e6)
	case mag >= 1e3:
		return fmt.Sprintf("%.2f kL", v/1e3)
	default:
		return fmt.Sprintf("%.2f L", v)
	}
}

// KWh is energy in kilowatt-hours, the unit of E in Eq. 6-8 of the paper.
type KWh float64

// MWh converts to megawatt-hours.
func (e KWh) MWh() float64 { return float64(e) / 1e3 }

// GWh converts to gigawatt-hours.
func (e KWh) GWh() float64 { return float64(e) / 1e6 }

// Joules converts to joules.
func (e KWh) Joules() float64 { return float64(e) * 3.6e6 }

// String renders the energy with an automatically chosen scale.
func (e KWh) String() string {
	v := float64(e)
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2f GWh", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.2f MWh", v/1e3)
	default:
		return fmt.Sprintf("%.2f kWh", v)
	}
}

// Watts is instantaneous electrical power.
type Watts float64

// Megawatts converts to MW.
func (w Watts) Megawatts() float64 { return float64(w) / 1e6 }

// Kilowatts converts to kW.
func (w Watts) Kilowatts() float64 { return float64(w) / 1e3 }

// String renders the power with an automatically chosen scale.
func (w Watts) String() string {
	v := float64(w)
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2f MW", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.2f kW", v/1e3)
	default:
		return fmt.Sprintf("%.1f W", v)
	}
}

// MW constructs Watts from a megawatt count.
func MW(mw float64) Watts { return Watts(mw * 1e6) }

// EnergyOver returns the energy delivered by drawing power w for the given
// number of hours.
func (w Watts) EnergyOver(hours float64) KWh {
	return KWh(float64(w) / 1e3 * hours)
}

// Celsius is a temperature in degrees Celsius. Wet-bulb temperatures, the
// input to the WUE model, are Celsius values.
type Celsius float64

// Fahrenheit converts to degrees Fahrenheit.
func (c Celsius) Fahrenheit() float64 { return float64(c)*9/5 + 32 }

// String renders the temperature.
func (c Celsius) String() string { return fmt.Sprintf("%.1f°C", float64(c)) }

// RelativeHumidity is a relative humidity fraction in percent (0-100).
type RelativeHumidity float64

// Clamp returns the humidity clipped to the physical [0, 100] range.
func (h RelativeHumidity) Clamp() RelativeHumidity {
	if h < 0 {
		return 0
	}
	if h > 100 {
		return 100
	}
	return h
}

// SquareMM is an area in square millimetres (die areas in Eq. 4).
type SquareMM float64

// SquareCM converts to square centimetres, the unit the per-area water
// factors (UPW, PCW, WPA) are expressed in.
func (a SquareMM) SquareCM() float64 { return float64(a) / 100 }

// GB is a data capacity in gigabytes (memory/storage capacities in Eq. 5).
type GB float64

// TB converts to terabytes.
func (g GB) TB() float64 { return float64(g) / 1e3 }

// PB converts to petabytes.
func (g GB) PB() float64 { return float64(g) / 1e6 }

// PBytes constructs GB from a petabyte count.
func PBytes(pb float64) GB { return GB(pb * 1e6) }

// String renders the capacity with an automatically chosen scale.
func (g GB) String() string {
	v := float64(g)
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.1f PB", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1f TB", v/1e3)
	default:
		return fmt.Sprintf("%.0f GB", v)
	}
}

// GramsCO2 is a mass of CO2-equivalent emissions in grams.
type GramsCO2 float64

// Kilograms converts to kilograms.
func (g GramsCO2) Kilograms() float64 { return float64(g) / 1e3 }

// Tonnes converts to metric tonnes.
func (g GramsCO2) Tonnes() float64 { return float64(g) / 1e6 }

// String renders the emission mass with an automatically chosen scale.
func (g GramsCO2) String() string {
	v := float64(g)
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2f tCO2e", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.2f kgCO2e", v/1e3)
	default:
		return fmt.Sprintf("%.1f gCO2e", v)
	}
}

// LPerKWh is a water intensity: litres of water per kilowatt-hour. It is the
// unit of WUE, EWF, and WI (Eq. 6-8).
type LPerKWh float64

// Times scales an energy amount by the intensity, yielding water volume.
func (wi LPerKWh) Times(e KWh) Liters { return Liters(float64(wi) * float64(e)) }

// String renders the intensity.
func (wi LPerKWh) String() string { return fmt.Sprintf("%.3f L/kWh", float64(wi)) }

// GCO2PerKWh is a carbon intensity: grams CO2-eq per kilowatt-hour.
type GCO2PerKWh float64

// Times scales an energy amount by the intensity, yielding emitted mass.
func (ci GCO2PerKWh) Times(e KWh) GramsCO2 { return GramsCO2(float64(ci) * float64(e)) }

// String renders the carbon intensity.
func (ci GCO2PerKWh) String() string { return fmt.Sprintf("%.1f gCO2/kWh", float64(ci)) }

// LPerSqCM is a water factor per unit die area (UPW, PCW, WPA in Eq. 4).
type LPerSqCM float64

// LPerGB is a water factor per unit capacity (WPC in Eq. 5).
type LPerGB float64

// PUE is a power usage effectiveness ratio (total facility energy over IT
// energy, >= 1 for physical facilities).
type PUE float64

// Valid reports whether the PUE is physically meaningful (>= 1).
func (p PUE) Valid() bool { return p >= 1 }

// WSI is a water scarcity index weighting factor. AWARE-style indices range
// over roughly [0.1, 100]; AWARE-global site factors in the paper's Fig. 8
// are sub-1 values.
type WSI float64

// Nanometers is a semiconductor process node size.
type Nanometers float64
