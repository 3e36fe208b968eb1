// Package weather generates the site weather series that drive the direct
// water footprint model. The paper consumes live weather reports (wet-bulb
// temperature per HPC site, Table 2); this package substitutes a
// deterministic climatology simulator: seasonal and diurnal temperature
// harmonics plus autocorrelated noise, with relative humidity modeled
// against the diurnal cycle. The wet-bulb temperature is computed with the
// Stull (2011) empirical formula the paper cites [74].
package weather

import (
	"fmt"
	"math"

	"thirstyflops/internal/fingerprint"
	"thirstyflops/internal/stats"
	"thirstyflops/internal/units"
)

// Site describes the climatology of an HPC datacenter location. The fields
// parameterize the synthetic generator; the provided constructors encode
// published climate normals for the four paper sites.
type Site struct {
	Name    string  // display name, e.g. "Bologna"
	Country string  // country for reporting
	Lat     float64 // latitude in degrees (drives seasonality sign)
	Lon     float64 // longitude in degrees

	MeanTemp    units.Celsius // annual mean dry-bulb temperature
	SeasonalAmp units.Celsius // half peak-to-trough seasonal swing
	DiurnalAmp  units.Celsius // half peak-to-trough daily swing

	MeanRH        units.RelativeHumidity // annual mean relative humidity
	SeasonalRHAmp float64                // seasonal RH swing (percentage points)

	WarmestDay float64 // day-of-year of the seasonal temperature peak
	NoiseStd   float64 // std-dev of the AR(1) temperature noise (°C)
}

// Sample is one hour of site weather.
type Sample struct {
	Hour    int // hour of year, 0-based
	Temp    units.Celsius
	RH      units.RelativeHumidity
	WetBulb units.Celsius
}

// Bologna returns the climatology for CINECA's Marconi100 site
// (Bologna, Italy): continental-Mediterranean, humid, hot summers.
func Bologna() Site {
	return Site{
		Name: "Bologna", Country: "Italy", Lat: 44.49, Lon: 11.34,
		MeanTemp: 15.0, SeasonalAmp: 11.0, DiurnalAmp: 4.5,
		MeanRH: 72, SeasonalRHAmp: 8,
		WarmestDay: 205, NoiseStd: 1.6,
	}
}

// Kobe returns the climatology for RIKEN's Fugaku site (Kobe, Japan):
// humid subtropical with very humid summers.
func Kobe() Site {
	return Site{
		Name: "Kobe", Country: "Japan", Lat: 34.69, Lon: 135.20,
		MeanTemp: 17.0, SeasonalAmp: 10.5, DiurnalAmp: 3.5,
		MeanRH: 68, SeasonalRHAmp: 10,
		WarmestDay: 220, NoiseStd: 1.4,
	}
}

// Lemont returns the climatology for Argonne's Polaris site (Lemont, IL,
// US): humid continental, cold winters.
func Lemont() Site {
	return Site{
		Name: "Lemont", Country: "US", Lat: 41.67, Lon: -87.98,
		MeanTemp: 10.6, SeasonalAmp: 14.0, DiurnalAmp: 5.0,
		MeanRH: 70, SeasonalRHAmp: 6,
		WarmestDay: 200, NoiseStd: 2.2,
	}
}

// OakRidge returns the climatology for ORNL's Frontier site (Oak Ridge,
// TN, US): humid subtropical.
func OakRidge() Site {
	return Site{
		Name: "Oak Ridge", Country: "US", Lat: 36.01, Lon: -84.27,
		MeanTemp: 15.0, SeasonalAmp: 11.0, DiurnalAmp: 5.5,
		MeanRH: 71, SeasonalRHAmp: 6,
		WarmestDay: 202, NoiseStd: 1.8,
	}
}

// Livermore returns the climatology for LLNL's El Capitan site
// (Livermore, CA, US): Mediterranean — dry summers with strong diurnal
// swings. An outlook site (paper Sec. 6b), not part of the Table 1 four.
func Livermore() Site {
	return Site{
		Name: "Livermore", Country: "US", Lat: 37.69, Lon: -121.77,
		MeanTemp: 15.5, SeasonalAmp: 9.5, DiurnalAmp: 8.0,
		MeanRH: 60, SeasonalRHAmp: 12,
		WarmestDay: 205, NoiseStd: 1.5,
	}
}

// The bundled site constructors: the four paper sites, then the outlook
// sites.
var (
	paperSites   = []func() Site{Bologna, Kobe, Lemont, OakRidge}
	outlookSites = []func() Site{Livermore}
)

// siteCtors maps every bundled site's name to its constructor, built
// once from the lists above.
var siteCtors = func() map[string]func() Site {
	out := make(map[string]func() Site, len(paperSites)+len(outlookSites))
	for _, list := range [][]func() Site{paperSites, outlookSites} {
		for _, ctor := range list {
			out[ctor().Name] = ctor
		}
	}
	return out
}()

// SiteByName builds the bundled site (any of AllSites) with the given
// name, constructing no other site.
func SiteByName(name string) (Site, bool) {
	ctor, ok := siteCtors[name]
	if !ok {
		return Site{}, false
	}
	return ctor(), true
}

// Sites returns the four paper sites keyed by name.
func Sites() map[string]Site {
	out := make(map[string]Site, len(paperSites))
	for _, ctor := range paperSites {
		s := ctor()
		out[s.Name] = s
	}
	return out
}

// AllSites returns the paper sites plus the outlook sites.
func AllSites() map[string]Site {
	out := Sites()
	for _, ctor := range outlookSites {
		s := ctor()
		out[s.Name] = s
	}
	return out
}

// Validate reports whether the site parameters are physically plausible.
func (s Site) Validate() error {
	switch {
	case s.Name == "":
		return fmt.Errorf("weather: site has no name")
	case s.SeasonalAmp < 0 || s.DiurnalAmp < 0:
		return fmt.Errorf("weather: %s: negative amplitude", s.Name)
	case s.MeanRH < 0 || s.MeanRH > 100:
		return fmt.Errorf("weather: %s: mean RH %v out of range", s.Name, s.MeanRH)
	case s.NoiseStd < 0:
		return fmt.Errorf("weather: %s: negative noise std", s.Name)
	}
	return nil
}

// Fingerprint writes every field that shapes the generated climatology.
func (s Site) Fingerprint(h *fingerprint.Hasher) {
	h.String(s.Name)
	h.String(s.Country)
	h.Float(s.Lat)
	h.Float(s.Lon)
	h.Float(float64(s.MeanTemp))
	h.Float(float64(s.SeasonalAmp))
	h.Float(float64(s.DiurnalAmp))
	h.Float(float64(s.MeanRH))
	h.Float(s.SeasonalRHAmp)
	h.Float(s.WarmestDay)
	h.Float(s.NoiseStd)
}

// diurnalCos is the daily harmonic by hour of day: the daily maximum
// falls around 15:00 local.
var diurnalCos = func() (t [24]float64) {
	for i := range t {
		hourOfDay := float64(i)
		t[i] = math.Cos(2 * math.Pi * (hourOfDay - 15) / 24.0)
	}
	return t
}()

// HourlyYear generates a deterministic 8760-hour weather series for the
// site. The same (site, seed) pair always yields the identical series.
func (s Site) HourlyYear(seed uint64) []Sample {
	out := make([]Sample, stats.HoursPerYear)
	s.generate(seed, func(smp Sample) { out[smp.Hour] = smp })
	return out
}

// WetBulbYear generates the same year as HourlyYear but keeps only its
// wet-bulb column, the input of the cooling model.
func (s Site) WetBulbYear(seed uint64) []units.Celsius {
	out := make([]units.Celsius, stats.HoursPerYear)
	s.generate(seed, func(smp Sample) { out[smp.Hour] = smp.WetBulb })
	return out
}

// generate runs the hourly weather simulation, handing every sample to
// emit in order.
func (s Site) generate(seed uint64, emit func(Sample)) {
	rng := stats.NewRNG(seed ^ hashName(s.Name))
	// AR(1) noise: keeps hour-to-hour weather correlated like real fronts.
	const ar = 0.96
	noise := 0.0
	innovStd := s.NoiseStd * math.Sqrt(1-ar*ar)
	season := stats.SeasonCos(s.WarmestDay)
	for h := 0; h < stats.HoursPerYear; h++ {
		seasonCos := season[h]
		dayCos := diurnalCos[h%24]

		seasonal := float64(s.SeasonalAmp) * seasonCos
		diurnal := float64(s.DiurnalAmp) * dayCos
		noise = ar*noise + rng.NormMeanStd(0, innovStd)

		temp := float64(s.MeanTemp) + seasonal + diurnal + noise

		// RH runs opposite the diurnal cycle (moist mornings, drier
		// afternoons) and is mildly seasonal; add small weather noise.
		rh := float64(s.MeanRH) +
			s.SeasonalRHAmp*seasonCos -
			10*dayCos +
			rng.NormMeanStd(0, 3)
		rhC := units.RelativeHumidity(stats.Clamp(rh, 5, 99))

		tC := units.Celsius(temp)
		emit(Sample{
			Hour:    h,
			Temp:    tC,
			RH:      rhC,
			WetBulb: WetBulb(tC, rhC),
		})
	}
}

// WetBulbSeries extracts just the wet-bulb series from a year of samples.
func WetBulbSeries(samples []Sample) []units.Celsius {
	out := make([]units.Celsius, len(samples))
	for i, s := range samples {
		out[i] = s.WetBulb
	}
	return out
}

// WetBulb computes the wet-bulb temperature from dry-bulb temperature and
// relative humidity using Stull's 2011 single-equation approximation
// (J. Appl. Meteor. Climatol. 50, 2267-2269), the formulation the paper
// cites for WUE's weather dependence. Inputs are clamped into the formula's
// validity envelope (RH 5-99 %, T -20..50 °C).
func WetBulb(t units.Celsius, rh units.RelativeHumidity) units.Celsius {
	T := stats.Clamp(float64(t), -20, 50)
	RH := stats.Clamp(float64(rh), 5, 99)
	tw := T*math.Atan(0.151977*math.Sqrt(RH+8.313659)) +
		math.Atan(T+RH) -
		math.Atan(RH-1.676331) +
		0.00391838*math.Pow(RH, 1.5)*math.Atan(0.023101*RH) -
		4.686035
	if tw > T {
		// The approximation can overshoot by a few hundredths near
		// saturation; the wet bulb physically cannot exceed dry bulb.
		tw = T
	}
	return units.Celsius(tw)
}

func hashName(name string) uint64 {
	// FNV-1a, inlined to keep the package dependency-free.
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
