// Package energy models the electricity side of the indirect water
// footprint (Eq. 7): energy sources with their Energy Water Factors and
// carbon intensities (the paper's Fig. 5), regional energy mixes with
// hourly/seasonal variation (Fig. 6a), and the scenario mixes used for the
// nuclear-powered-HPC study (Fig. 14).
//
// The paper consumes live grid feeds from Electricity Maps; this package
// substitutes a deterministic grid simulator whose per-source availability
// models (hydro drought cycles, solar day-curves, demand-following gas)
// reproduce the temporal EWF behaviour the analysis depends on.
package energy

import (
	"fmt"

	"thirstyflops/internal/units"
)

// Source identifies an electricity generation technology.
type Source int

// Generation technologies covered by the paper's Fig. 5.
const (
	Coal Source = iota
	Gas
	Oil
	Nuclear
	Hydro
	Wind
	Solar
	Geothermal
	Biomass
	numSources
)

// sourceOrder is every modeled source in index order.
var sourceOrder = func() (out [numSources]Source) {
	for i := range out {
		out[i] = Source(i)
	}
	return out
}()

// AllSources lists every modeled source in a stable order.
func AllSources() []Source {
	out := make([]Source, numSources)
	copy(out, sourceOrder[:])
	return out
}

// valid reports whether s is one of the modeled sources.
func (s Source) valid() bool { return s >= 0 && s < numSources }

var sourceNames = [...]string{
	Coal:       "coal",
	Gas:        "gas",
	Oil:        "oil",
	Nuclear:    "nuclear",
	Hydro:      "hydro",
	Wind:       "wind",
	Solar:      "solar",
	Geothermal: "geothermal",
	Biomass:    "biomass",
}

// String returns the lower-case source name.
func (s Source) String() string {
	if !s.valid() {
		return fmt.Sprintf("source(%d)", int(s))
	}
	return sourceNames[s]
}

// Renewable reports whether the source is conventionally counted as
// renewable. Nuclear is low-carbon but not renewable.
func (s Source) Renewable() bool {
	switch s {
	case Hydro, Wind, Solar, Geothermal, Biomass:
		return true
	}
	return false
}

// Dispatchable reports whether output can follow demand (vs. variable
// renewables and inflexible baseload).
func (s Source) Dispatchable() bool {
	switch s {
	case Gas, Oil, Hydro, Biomass, Coal:
		return true
	}
	return false
}

// FactorRange holds the minimum / median / maximum of an empirical factor,
// matching the error bars of the paper's Fig. 5.
type FactorRange struct {
	Min, Median, Max float64
}

// Valid reports whether the range is ordered and non-negative.
func (f FactorRange) Valid() bool {
	return f.Min >= 0 && f.Min <= f.Median && f.Median <= f.Max
}

// ewfTable holds operational water-consumption factors per source in L/kWh,
// following NREL TP-6A20-50900 (Macknick et al.) and WRI guidance, the
// paper's references [51, 61]. Hydro reflects aggregated in-stream +
// reservoir data including evaporation losses, hence its dominance; the
// paper's Table 2 bounds the per-source range at 1-17 L/kWh for the
// non-trivial sources.
var ewfTable = map[Source]FactorRange{
	Coal:       {1.0, 2.0, 2.6},
	Gas:        {0.4, 0.9, 1.2},
	Oil:        {0.9, 1.4, 2.1},
	Nuclear:    {0.5, 2.5, 3.2}, // once-through 0.5-1.5, wet tower 2.2-3.2 (Sec. 5)
	Hydro:      {5.0, 16.0, 17.0},
	Wind:       {0.001, 0.01, 0.02},
	Solar:      {0.02, 0.1, 0.33},
	Geothermal: {1.0, 5.3, 14.0},
	Biomass:    {0.5, 1.0, 1.8},
}

// carbonTable holds lifecycle carbon intensities per source in gCO2-eq/kWh
// (IPCC-style medians with literature spreads).
var carbonTable = map[Source]FactorRange{
	Coal:       {820, 1000, 1100},
	Gas:        {430, 490, 650},
	Oil:        {720, 840, 970},
	Nuclear:    {6, 12, 25},
	Hydro:      {10, 24, 40},
	Wind:       {8, 11, 16},
	Solar:      {18, 45, 80},
	Geothermal: {20, 38, 80},
	Biomass:    {180, 230, 320},
}

// EWFRange returns the energy-water-factor range of a source in L/kWh.
func (s Source) EWFRange() FactorRange { return ewfTable[s] }

// EWF returns the median energy water factor of a source.
func (s Source) EWF() units.LPerKWh { return units.LPerKWh(ewfTable[s].Median) }

// CarbonRange returns the carbon-intensity range of a source in gCO2/kWh.
func (s Source) CarbonRange() FactorRange { return carbonTable[s] }

// CarbonIntensity returns the median carbon intensity of a source.
func (s Source) CarbonIntensity() units.GCO2PerKWh {
	return units.GCO2PerKWh(carbonTable[s].Median)
}
