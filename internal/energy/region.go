package energy

import (
	"fmt"
	"math"

	"thirstyflops/internal/fingerprint"
	"thirstyflops/internal/stats"
	"thirstyflops/internal/units"
)

// Region models the electricity grid serving an HPC site: its average
// energy mix plus the availability dynamics that make the mix — and
// therefore the EWF and carbon intensity — vary through the year
// (Fig. 6a). Hydro availability follows a snowmelt-peaked seasonal cycle
// with multi-week hydrology noise; solar follows day curves and seasonal
// insolation; a dispatchable balancer (usually gas) absorbs the residual.
type Region struct {
	Name    string
	Country string

	// Base is the annual-average generation mix.
	Base Mix

	// HydroSeasonality is the relative amplitude of the hydro availability
	// swing (0 = constant, 1 = ±100 %); HydroPeakDay is the day-of-year of
	// maximum availability (snowmelt spring for alpine basins).
	HydroSeasonality float64
	HydroPeakDay     float64
	// HydroNoise is the std-dev of the slow (multi-week) hydrology noise,
	// relative to the base hydro share.
	HydroNoise float64

	// SolarSeasonality is the relative summer/winter insolation swing.
	SolarSeasonality float64
	// WindNoise is the std-dev of the wind availability noise, relative to
	// the base wind share.
	WindNoise float64

	// Balancer is the dispatchable source that absorbs the residual demand
	// after variable sources are dispatched. Gas for all modeled regions.
	Balancer Source

	// EWFOverrides substitutes region-specific water factors — e.g.
	// once-through-cooled nuclear fleets on the Great Lakes consume far
	// less water than the wet-tower median.
	EWFOverrides map[Source]units.LPerKWh
	// CarbonOverrides substitutes region-specific carbon factors.
	CarbonOverrides map[Source]units.GCO2PerKWh

	// HydroEvapSummerBoost raises the effective hydro EWF at the height of
	// summer (reservoir evaporation peaks with insolation); 0.2 means +20 %
	// at the peak and -20 % mid-winter.
	HydroEvapSummerBoost float64
}

// Hour is one hour of simulated grid state.
type Hour struct {
	Index  int // hour of year
	Mix    Shares
	EWF    units.LPerKWh
	Carbon units.GCO2PerKWh
}

// Validate checks the region parameters.
func (r Region) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("energy: region has no name")
	}
	if err := r.Base.Validate(); err != nil {
		return fmt.Errorf("energy: region %s: %w", r.Name, err)
	}
	if r.Base.Share(r.Balancer) <= 0 {
		return fmt.Errorf("energy: region %s: balancer %v absent from base mix", r.Name, r.Balancer)
	}
	if r.HydroSeasonality < 0 || r.HydroSeasonality > 1.5 {
		return fmt.Errorf("energy: region %s: hydro seasonality %v out of range", r.Name, r.HydroSeasonality)
	}
	return nil
}

// Fingerprint writes every field that shapes the simulated grid year.
// Map-valued fields (mix shares and overrides) are written in AllSources
// order so the encoding is canonical regardless of map iteration order.
func (r Region) Fingerprint(h *fingerprint.Hasher) {
	h.String(r.Name)
	h.String(r.Country)
	fingerprintMix(h, r.Base)
	h.Float(r.HydroSeasonality)
	h.Float(r.HydroPeakDay)
	h.Float(r.HydroNoise)
	h.Float(r.SolarSeasonality)
	h.Float(r.WindNoise)
	h.Int(int(r.Balancer))
	h.Len(len(r.EWFOverrides))
	for _, s := range AllSources() {
		if v, ok := r.EWFOverrides[s]; ok {
			h.Int(int(s))
			h.Float(float64(v))
		}
	}
	h.Len(len(r.CarbonOverrides))
	for _, s := range AllSources() {
		if v, ok := r.CarbonOverrides[s]; ok {
			h.Int(int(s))
			h.Float(float64(v))
		}
	}
	h.Float(r.HydroEvapSummerBoost)
}

// fingerprintMix writes a mix's shares in stable source order.
func fingerprintMix(h *fingerprint.Hasher, m Mix) {
	h.Len(len(m))
	for _, s := range AllSources() {
		if v, ok := m[s]; ok {
			h.Int(int(s))
			h.Float(v)
		}
	}
}

// solarDailyMean is the day-average of max(0, cos(...)) daylight shaping,
// used to keep the base solar share an annual average.
const solarDailyMean = 1.0 / math.Pi

// solarDaylight is the solar day curve by hour of day, peaking at 13:00.
var solarDaylight = func() (t [24]float64) {
	for i := range t {
		hourOfDay := float64(i)
		t[i] = math.Max(0, math.Cos(2*math.Pi*(hourOfDay-13)/24))
	}
	return t
}()

// HourlyYear simulates one year of grid state at hourly resolution. The
// same (region, seed) pair always produces the identical series.
func (r Region) HourlyYear(seed uint64) []Hour {
	out := make([]Hour, stats.HoursPerYear)
	r.generate(seed, func(h Hour) { out[h.Index] = h })
	return out
}

// Signals simulates the same year as HourlyYear but keeps only its EWF
// and carbon-intensity columns, the two signals an assessment consumes.
func (r Region) Signals(seed uint64) ([]units.LPerKWh, []units.GCO2PerKWh) {
	ewf := make([]units.LPerKWh, stats.HoursPerYear)
	carbon := make([]units.GCO2PerKWh, stats.HoursPerYear)
	r.generate(seed, func(h Hour) { ewf[h.Index], carbon[h.Index] = h.EWF, h.Carbon })
	return ewf, carbon
}

// generate runs the hourly grid simulation, handing every hour to emit in
// order. The base mix and factor overrides are resolved into per-source
// arrays once, so the hourly loop does no map lookups or allocations.
func (r Region) generate(seed uint64, emit func(Hour)) {
	rng := stats.NewRNG(seed ^ hashName(r.Name))
	base := r.Base.shares()
	ewfF := factors(Source.EWF, r.EWFOverrides)
	carbonF := factors(Source.CarbonIntensity, r.CarbonOverrides)

	// The variable sources are dispatched from base and the balancer
	// absorbs the rest; active lists both, in source order. Every other
	// share is 0 all year, so the hourly sums skip it: its term would add
	// +0 and leave them bit for bit unchanged. A source with a non-finite
	// factor stays active, where its 0 share still makes the sum NaN.
	var isVariable [numSources]bool
	for s := range r.Base {
		if s.valid() && s != r.Balancer {
			isVariable[s] = true
		}
	}
	var variableArr, activeArr [numSources]Source
	variable, active := variableArr[:0], activeArr[:0]
	for _, s := range sourceOrder {
		if isVariable[s] {
			variable = append(variable, s)
		}
		if isVariable[s] || s == r.Balancer || !finite(ewfF[s]) || !finite(carbonF[s]) {
			active = append(active, s)
		}
	}

	// The seasonal cosines, fetched only for the terms the region uses.
	var hydroCos, solarCos, evapCos *[stats.HoursPerYear]float64
	if isVariable[Hydro] {
		hydroCos = stats.SeasonCos(r.HydroPeakDay)
	}
	if isVariable[Solar] {
		solarCos = stats.SeasonCos(172)
	}
	if r.HydroEvapSummerBoost != 0 {
		evapCos = stats.SeasonCos(200)
	}

	// Slow AR(1) noise for hydrology (correlation time ~3 weeks) and a
	// faster one for wind (~ half a day).
	const hydroAR = 0.998
	const windAR = 0.95
	hydroNoise, windNoise := 0.0, 0.0
	hydroInnov := r.HydroNoise * math.Sqrt(1-hydroAR*hydroAR)
	windInnov := r.WindNoise * math.Sqrt(1-windAR*windAR)

	// A region that dispatches no hydro (or no wind) never reads that
	// noise, so its draw only advances the stream: every hour consumes
	// the same values as when both are computed.
	for h := 0; h < stats.HoursPerYear; h++ {
		if isVariable[Hydro] {
			hydroNoise = hydroAR*hydroNoise + rng.NormMeanStd(0, hydroInnov)
		} else {
			rng.SkipNorm()
		}
		if isVariable[Wind] {
			windNoise = windAR*windNoise + rng.NormMeanStd(0, windInnov)
		} else {
			rng.SkipNorm()
		}

		var m Shares
		var dispatched float64
		for _, s := range variable {
			share := base[s]
			switch s {
			case Hydro:
				// Availability is floored at 25 % of base: reservoirs keep
				// minimum environmental flows even in dry winters.
				avail := 1 + r.HydroSeasonality*hydroCos[h] + hydroNoise
				share = share * stats.Clamp(avail, 0.25, 2.2)
			case Solar:
				season := 1 + r.SolarSeasonality*solarCos[h]
				share = share * solarDaylight[h%24] / solarDailyMean * stats.Clamp(season, 0, 2)
			case Wind:
				share = share * stats.Clamp(1+windNoise, 0.05, 2.5)
			}
			m[s] = share
			dispatched += share
		}
		// The balancer absorbs whatever the others left uncovered. If the
		// variable sources over-produce, everything is renormalized, which
		// models exports/curtailment pro rata.
		if r.Balancer.valid() {
			m[r.Balancer] = math.Max(0, 1-dispatched)
		}
		m.normalize(active)

		ewf := m.weigh(&ewfF, active)
		if r.HydroEvapSummerBoost != 0 && m[Hydro] != 0 {
			// Reservoir evaporation peaks with insolation around day 200.
			boost := r.HydroEvapSummerBoost * evapCos[h]
			ewf += m[Hydro] * ewfF[Hydro] * boost
		}
		emit(Hour{
			Index:  h,
			Mix:    m,
			EWF:    units.LPerKWh(ewf),
			Carbon: units.GCO2PerKWh(m.weigh(&carbonF, active)),
		})
	}
}

// finite reports whether f is neither infinite nor NaN.
func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// --- The four paper regions ---

// Italy returns the grid serving Marconi100 (Bologna): gas-led with a large
// alpine hydro fleet whose availability and reservoir evaporation dominate
// the EWF dynamics — the paper's explanation for Marconi's widest EWF range
// (up to 10.59 L/kWh).
func Italy() Region {
	return Region{
		Name: "Italy", Country: "Italy",
		Base: Mix{
			Hydro: 0.26, Gas: 0.42, Solar: 0.12, Wind: 0.07,
			Biomass: 0.08, Coal: 0.03, Geothermal: 0.02,
		},
		HydroSeasonality: 0.75, HydroPeakDay: 140, HydroNoise: 0.3,
		SolarSeasonality: 0.45, WindNoise: 0.35,
		Balancer:             Gas,
		HydroEvapSummerBoost: 0.20,
	}
}

// Japan returns the grid serving Fugaku (Kobe): gas/coal-led, modest hydro
// and restarted nuclear.
func Japan() Region {
	return Region{
		Name: "Japan", Country: "Japan",
		Base: Mix{
			Gas: 0.34, Coal: 0.27, Nuclear: 0.09, Solar: 0.10,
			Hydro: 0.06, Oil: 0.04, Wind: 0.03, Biomass: 0.07,
		},
		HydroSeasonality: 0.5, HydroPeakDay: 160, HydroNoise: 0.2,
		SolarSeasonality: 0.35, WindNoise: 0.4,
		Balancer:             Gas,
		HydroEvapSummerBoost: 0.15,
	}
}

// Illinois returns the grid serving Polaris (Lemont): the most
// nuclear-heavy US state. The fleet is largely once-through/lake cooled,
// so the nuclear EWF is overridden well below the wet-tower median — this
// is why Polaris shows the lowest EWF of the four systems.
func Illinois() Region {
	return Region{
		Name: "Illinois", Country: "US",
		Base: Mix{
			Nuclear: 0.53, Gas: 0.17, Coal: 0.15, Wind: 0.12, Solar: 0.03,
		},
		SolarSeasonality: 0.5, WindNoise: 0.45,
		Balancer: Gas,
		EWFOverrides: map[Source]units.LPerKWh{
			Nuclear: 1.9, // mixed once-through / cooling-pond fleet
		},
	}
}

// Tennessee returns the grid serving Frontier (Oak Ridge): the TVA system —
// nuclear and hydro dams with gas/coal firming.
func Tennessee() Region {
	return Region{
		Name: "Tennessee", Country: "US",
		Base: Mix{
			Nuclear: 0.40, Gas: 0.25, Coal: 0.20, Hydro: 0.08,
			Solar: 0.04, Wind: 0.03,
		},
		HydroSeasonality: 0.55, HydroPeakDay: 110, HydroNoise: 0.2,
		SolarSeasonality: 0.4, WindNoise: 0.4,
		Balancer: Gas,
		EWFOverrides: map[Source]units.LPerKWh{
			Nuclear: 2.6, // wet-tower dominated TVA nuclear
		},
		HydroEvapSummerBoost: 0.25,
	}
}

// The bundled region constructors: the four paper regions, then the
// outlook and candidate regions.
var (
	paperRegions = []func() Region{Italy, Japan, Illinois, Tennessee}
	moreRegions  = []func() Region{California, PacificNorthwest, Texas, Arizona}
)

// regionCtors maps every bundled region's name to its constructor,
// built once from the lists above.
var regionCtors = func() map[string]func() Region {
	out := make(map[string]func() Region, len(paperRegions)+len(moreRegions))
	for _, list := range [][]func() Region{paperRegions, moreRegions} {
		for _, ctor := range list {
			out[ctor().Name] = ctor
		}
	}
	return out
}()

// RegionByName builds the bundled region (any of AllRegions) with the
// given name, constructing no other region.
func RegionByName(name string) (Region, bool) {
	ctor, ok := regionCtors[name]
	if !ok {
		return Region{}, false
	}
	return ctor(), true
}

// Regions returns the four paper regions keyed by name.
func Regions() map[string]Region {
	out := make(map[string]Region, len(paperRegions))
	for _, ctor := range paperRegions {
		r := ctor()
		out[r.Name] = r
	}
	return out
}

// California returns the grid serving El Capitan (Livermore): solar-heavy
// CAISO with gas firming, Sierra hydro, and Geysers geothermal. An
// outlook region (paper Sec. 6b).
func California() Region {
	return Region{
		Name: "California", Country: "US",
		Base: Mix{
			Gas: 0.47, Solar: 0.20, Hydro: 0.10, Nuclear: 0.08,
			Wind: 0.07, Geothermal: 0.05, Biomass: 0.03,
		},
		HydroSeasonality: 0.7, HydroPeakDay: 130, HydroNoise: 0.25,
		SolarSeasonality: 0.35, WindNoise: 0.4,
		Balancer:             Gas,
		HydroEvapSummerBoost: 0.25,
	}
}

// AllRegions returns the paper regions plus the outlook and candidate
// regions keyed by name.
func AllRegions() map[string]Region {
	out := Regions()
	for _, ctor := range moreRegions {
		r := ctor()
		out[r.Name] = r
	}
	return out
}

// --- Additional candidate regions for site-selection studies ---

// PacificNorthwest returns a hydro-dominated candidate grid (site-selection
// example): very low carbon, very high water intensity.
func PacificNorthwest() Region {
	return Region{
		Name: "Pacific Northwest", Country: "US",
		Base: Mix{
			Hydro: 0.62, Gas: 0.18, Wind: 0.10, Nuclear: 0.05, Solar: 0.05,
		},
		HydroSeasonality: 0.6, HydroPeakDay: 150, HydroNoise: 0.2,
		SolarSeasonality: 0.6, WindNoise: 0.4,
		Balancer:             Gas,
		HydroEvapSummerBoost: 0.15,
	}
}

// Texas returns a gas/wind candidate grid: moderate carbon, low water.
func Texas() Region {
	return Region{
		Name: "Texas", Country: "US",
		Base: Mix{
			Gas: 0.45, Wind: 0.25, Coal: 0.13, Solar: 0.09, Nuclear: 0.08,
		},
		SolarSeasonality: 0.35, WindNoise: 0.5,
		Balancer: Gas,
	}
}

// Arizona returns a solar/nuclear candidate grid in a water-scarce basin.
func Arizona() Region {
	return Region{
		Name: "Arizona", Country: "US",
		Base: Mix{
			Solar: 0.22, Nuclear: 0.28, Gas: 0.38, Coal: 0.08, Hydro: 0.04,
		},
		HydroSeasonality: 0.4, HydroPeakDay: 120, HydroNoise: 0.15,
		SolarSeasonality: 0.25, WindNoise: 0.3,
		Balancer: Gas,
		EWFOverrides: map[Source]units.LPerKWh{
			Nuclear: 2.9, // Palo Verde recycles municipal wastewater in towers
		},
		HydroEvapSummerBoost: 0.3,
	}
}

func hashName(name string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime
	}
	return h
}
