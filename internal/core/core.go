// Package core is ThirstyFLOPS itself: the water-footprint estimator that
// composes the substrates (weather, WUE curve, grid simulation, demand
// model, embodied model) into the paper's accounting identity
//
//	W = W_embodied + W_direct + W_indirect              (Eq. 1)
//	W_direct   = E · WUE                                (Eq. 6)
//	W_indirect = E · PUE · EWF                          (Eq. 7)
//	WI         = WUE + PUE · EWF                        (Eq. 8)
//	WI_WSI     = WI · WSI                               (Eq. 9)
//
// along with the scenario engine (Fig. 14), the embodied-vs-operational
// ratio analysis (Fig. 4), and the water-withdrawal extension (Table 3).
package core

import (
	"errors"
	"fmt"
	"io"

	"thirstyflops/internal/embodied"
	"thirstyflops/internal/energy"
	"thirstyflops/internal/fingerprint"
	"thirstyflops/internal/hardware"
	"thirstyflops/internal/jobs"
	"thirstyflops/internal/series"
	"thirstyflops/internal/stats"
	"thirstyflops/internal/substrate"
	"thirstyflops/internal/units"
	"thirstyflops/internal/weather"
	"thirstyflops/internal/wsi"
	"thirstyflops/internal/wue"
)

// Config wires one HPC system to its site, grid, cooling curve, demand
// model, and embodied parameters. Table 2 is the checklist of everything
// gathered here.
type Config struct {
	System   hardware.System
	Site     weather.Site
	Region   energy.Region
	Curve    wue.Curve
	Demand   jobs.DemandModel
	Embodied embodied.Params
	Scarcity wsi.Profile
	Seed     uint64
	Year     int
}

// ConfigFor assembles the full configuration for a bundled system: one of
// the four Table 1 systems or a Sec. 6(b) outlook system ("Aurora",
// "El Capitan"). Only the named system, its site and its region are
// built.
//
// Every call assembles a fresh configuration: its maps and slices alias
// no other result, so the caller may edit them in place. The Engine does
// not call it per request; it reads the process-wide, read-only
// Templates built from it once (TemplateFor).
func ConfigFor(systemName string) (Config, error) {
	sys, err := hardware.AnySystemByName(systemName)
	if err != nil {
		return Config{}, err
	}
	site, ok := weather.SiteByName(sys.SiteName)
	if !ok {
		return Config{}, fmt.Errorf("core: no climatology for site %q", sys.SiteName)
	}
	region, ok := energy.RegionByName(sys.Region)
	if !ok {
		return Config{}, fmt.Errorf("core: no grid region %q", sys.Region)
	}
	siteWSI, err := wsi.SiteWSI(sys.SiteName)
	if err != nil {
		return Config{}, err
	}
	return Config{
		System:   sys,
		Site:     site,
		Region:   region,
		Curve:    wue.DefaultCurve(),
		Demand:   jobs.DefaultDemand(),
		Embodied: embodied.DefaultParams(),
		Scarcity: wsi.Profile{Direct: siteWSI},
		Seed:     42,
		Year:     2023,
	}, nil
}

// Validate checks the assembled configuration.
func (c Config) Validate() error {
	if err := c.System.Validate(); err != nil {
		return err
	}
	if err := c.Site.Validate(); err != nil {
		return err
	}
	if err := c.Region.Validate(); err != nil {
		return err
	}
	if err := c.Curve.Validate(); err != nil {
		return err
	}
	if err := c.Demand.Validate(); err != nil {
		return err
	}
	if err := c.Embodied.Validate(); err != nil {
		return err
	}
	return c.Scarcity.Validate()
}

// Annual is one assessed year of operation: the typed hourly timeline
// plus aggregate footprints. All downstream figures draw from this
// struct. Like the aggregates, the annual-mean water intensities are
// fixed when AnnualFrom builds the year; rebuild it with AnnualFrom after
// replacing Hourly (with an edited Clone, never by writing in place).
type Annual struct {
	System string

	// Hourly is the aligned timeline (stats.HoursPerYear long) of IT
	// energy, WUE, EWF, and carbon intensity; its PUE field carries the
	// facility overhead used throughout the derived accounting. The
	// intensity channels alias shared substrate state (every year of the
	// same site, region and seed reads the same hours), so Hourly is
	// read-only: Clone it before writing to any channel. It is empty in
	// a year built by Spliced.
	Hourly series.Series

	// Aggregates.
	Energy   units.KWh // IT energy over the year
	Direct   units.Liters
	Indirect units.Liters
	Carbon   units.GramsCO2

	// The annual-mean direct and indirect water intensities, carried so
	// WaterIntensity is O(1). Unexported, so gob leaves them out of the
	// persisted record; hasMeans is false in an Annual not built by
	// AnnualFrom, which then recomputes them from Hourly.
	meanDirect, meanIndirect units.LPerKWh
	hasMeans                 bool
}

// Assess simulates one year: site weather drives WUE, the regional grid
// drives EWF and carbon intensity, the demand model drives energy, and
// the paper's equations combine them hour by hour.
//
// The substrate years are pure functions of (identity, seed) and are
// memoized across Configs by internal/substrate, so a sweep that shares a
// site, region, curve, or demand model generates each year once. Only the
// energy channel is allocated per assessment; the result's WUE, EWF and
// carbon channels alias the memoized years, whose values are
// bit-identical to direct generation.
func (c Config) Assess() (Annual, error) {
	a, _, err := c.AssessTraced()
	return a, err
}

// SubstrateTrace counts how the substrate lookups of one assessment
// resolved: Hits were served from the memoized layer, Misses generated a
// year. The wet-bulb year consulted inside a WUE miss is included, so
// an engine's traced totals tally with the layer-wide substrate.Stats.
// The Engine aggregates traces into its planned vs. unplanned substrate
// accounting (CacheStats), which is how planner effectiveness is
// observed in production.
type SubstrateTrace = substrate.Trace

// AssessTraced is Assess plus the substrate lookup trace. The trace is
// informational only: values and errors are identical to Assess.
func (c Config) AssessTraced() (Annual, SubstrateTrace, error) {
	var tr SubstrateTrace
	if err := c.Validate(); err != nil {
		return Annual{}, tr, err
	}
	wueYr, wtr := substrate.WUEYear(c.Curve, c.Site, c.Seed)
	tr.Merge(wtr)
	grid, hit := substrate.GridYear(c.Region, c.Seed)
	tr.Note(hit)
	util, hit := substrate.UtilizationYear(c.Demand, c.Seed)
	tr.Note(hit)
	if len(wueYr) != len(grid.EWF) || len(grid.EWF) != len(util) {
		return Annual{}, tr, fmt.Errorf("core: substrate series lengths differ")
	}

	// Only the energy channel belongs to this machine; the intensity
	// channels alias the memoized substrate years (series channels are
	// read-only after construction).
	draw := make([]units.KWh, len(util))
	power := c.System.PowerModel()
	for h := range util {
		draw[h] = power.At(util[h]).EnergyOver(1)
	}
	s, err := series.From(c.System.PUE, draw, wueYr, grid.EWF, grid.Carbon)
	if err != nil {
		return Annual{}, tr, fmt.Errorf("core: %w", err)
	}
	return AnnualFrom(c.System.Name, s), tr, nil
}

// SubstrateKeys fingerprints the substrate identity of the configuration:
// the (curve, site, region, demand, seed) subset of the Config that
// selects which memoized generator years Assess touches. Two Configs
// with equal combined substrate keys — e.g. the same machine assessed
// over different lifetimes, years, or embodied parameters — share every
// substrate cache entry, which is the reuse the sweep planner
// (internal/plan) schedules for.
func (c Config) SubstrateKeys() substrate.Keys {
	return substrate.KeysFor(c.Curve, c.Site, c.Region, c.Demand, c.Seed)
}

// AnnualFrom wraps an hourly timeline with its aggregate totals — the
// single constructor for an assessed year that carries its timeline,
// whether it came from simulation (Config.Assess) or from the
// persistence log. A live year priced without its timeline comes from
// Annual.Spliced.
func AnnualFrom(system string, s series.Series) Annual {
	t := s.Totals()
	return Annual{
		System:       system,
		Hourly:       s,
		Energy:       t.Energy,
		Direct:       t.Direct,
		Indirect:     t.Indirect,
		Carbon:       t.Carbon,
		meanDirect:   t.MeanDirect,
		meanIndirect: t.MeanIndirect,
		hasMeans:     true,
	}
}

// Spliced prices a without its timeline after some of its energy hours
// are replaced: f is the fold of the replacement energy over a's hours
// (series.Checkpoints.Resume). The aggregates come from f. The annual-mean
// water intensities are a's, because they depend only on the PUE and the
// intensity channels, which a splice does not touch. Every aggregate and
// intensity equals AnnualFrom's over the spliced series bit for bit, but
// Hourly is empty, so the hourly views (Monthly, MeanCarbonIntensity,
// WriteSeriesCSV) are not available on the result.
func (a Annual) Spliced(f series.Fold) Annual {
	d, i, _ := a.WaterIntensity()
	t := f.Totals()
	return Annual{
		System:       a.System,
		Energy:       t.Energy,
		Direct:       t.Direct,
		Indirect:     t.Indirect,
		Carbon:       t.Carbon,
		meanDirect:   d,
		meanIndirect: i,
		hasMeans:     true,
	}
}

// Fingerprint derives the configuration's cache key: a canonical binary
// encoding of every field that feeds the simulation (system, site,
// region, curve, demand, embodied, scarcity, seed, year) streamed through
// a pooled SHA-256, replacing the per-request JSON marshalling the Engine
// used to pay. Distinct configurations cannot collide and identical ones
// always hit.
//
// The encoding is every other field (fingerprintStatic) followed by Seed
// and Year (fingerprintSeedYear), so a bundled system's Template saves
// the hash state after the first part once and derives the same key from
// Seed and Year alone.
func (c Config) Fingerprint() fingerprint.Key {
	h := fingerprint.New()
	c.fingerprintStatic(h)
	fingerprintSeedYear(h, c.Seed, c.Year)
	key := h.Sum()
	h.Release()
	return key
}

// fingerprintStatic writes every field of the fingerprint except Seed
// and Year, in encoding order.
func (c *Config) fingerprintStatic(h *fingerprint.Hasher) {
	c.System.Fingerprint(h)
	c.Site.Fingerprint(h)
	c.Region.Fingerprint(h)
	c.Curve.Fingerprint(h)
	c.Demand.Fingerprint(h)
	c.Embodied.Fingerprint(h)
	c.Scarcity.Fingerprint(h)
}

// fingerprintSeedYear writes the two fields that end the fingerprint.
func fingerprintSeedYear(h *fingerprint.Hasher, seed uint64, year int) {
	h.Uint64(seed)
	h.Int(year)
}

// Operational is the total operational water footprint (Eq. 1's
// W_direct + W_indirect).
func (a Annual) Operational() units.Liters { return a.Direct + a.Indirect }

// DirectShare is the direct fraction of the operational footprint — the
// Fig. 7 pies.
func (a Annual) DirectShare() float64 {
	op := a.Operational()
	if op == 0 {
		return 0
	}
	return float64(a.Direct) / float64(op)
}

// WaterIntensity returns the annual-mean direct, indirect, and total water
// intensity (Eq. 8), energy-unweighted as the paper plots them.
func (a Annual) WaterIntensity() (direct, indirect, total units.LPerKWh) {
	if !a.hasMeans {
		return a.Hourly.MeanWaterIntensity()
	}
	return a.meanDirect, a.meanIndirect, a.meanDirect + a.meanIndirect
}

// MeanCarbonIntensity is the annual-mean grid carbon intensity.
func (a Annual) MeanCarbonIntensity() units.GCO2PerKWh {
	return a.Hourly.MeanCarbonIntensity()
}

// AdjustedWaterIntensity applies the scarcity profile (Eq. 9, extended to
// split direct/indirect WSIs as in Fig. 9).
func (a Annual) AdjustedWaterIntensity(p wsi.Profile) units.LPerKWh {
	d, i, _ := a.WaterIntensity()
	return p.AdjustedIntensity(d, i)
}

// Monthly aggregates for the Fig. 11/12 time-series comparisons.
type Monthly struct {
	Energy          []float64 // monthly IT energy, kWh
	Water           []float64 // monthly operational water, L
	WaterIntensity  []float64 // monthly mean WI, L/kWh
	DirectIntensity []float64
	IndirectIntens  []float64
	CarbonIntensity []float64 // monthly mean CI, g/kWh
}

// Monthly reduces the hourly series to per-month aggregates.
func (a Annual) Monthly() Monthly {
	n := a.Hourly.Len()
	e := make([]float64, n)
	w := make([]float64, n)
	wiD := make([]float64, n)
	wiI := make([]float64, n)
	ci := make([]float64, n)
	pue := float64(a.Hourly.PUE)
	for h := 0; h < n; h++ {
		eh := float64(a.Hourly.Energy[h])
		d := float64(a.Hourly.WUE[h])
		i := pue * float64(a.Hourly.EWF[h])
		e[h] = eh
		w[h] = eh * (d + i)
		wiD[h] = d
		wiI[h] = i
		ci[h] = float64(a.Hourly.Carbon[h])
	}
	m := Monthly{
		Energy:          scaleMonths(stats.MonthlyMeans(e)),
		Water:           scaleMonths(stats.MonthlyMeans(w)),
		DirectIntensity: stats.MonthlyMeans(wiD),
		IndirectIntens:  stats.MonthlyMeans(wiI),
		CarbonIntensity: stats.MonthlyMeans(ci),
	}
	m.WaterIntensity = make([]float64, len(m.DirectIntensity))
	for i := range m.WaterIntensity {
		m.WaterIntensity[i] = m.DirectIntensity[i] + m.IndirectIntens[i]
	}
	return m
}

// scaleMonths converts per-month hourly means into per-month totals.
func scaleMonths(means []float64) []float64 {
	hours := []float64{744, 672, 744, 720, 744, 720, 744, 744, 720, 744, 720, 744}
	out := make([]float64, len(means))
	for i := range means {
		out[i] = means[i] * hours[i%12]
	}
	return out
}

// EmbodiedBreakdown computes the system's Fig. 3 embodied footprint.
func (c Config) EmbodiedBreakdown() (embodied.Breakdown, error) {
	return embodied.SystemBreakdown(c.System, c.Embodied)
}

// WriteSeriesCSV exports the assessed hourly series as CSV
// (hour, energy_kwh, wue, ewf, wi, carbon) for external plotting: a
// system-metadata comment followed by the Series emitter, so there is a
// single source of truth for the row format.
func (a Annual) WriteSeriesCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# system=%s\n", a.System); err != nil {
		return err
	}
	return a.Hourly.WriteCSV(w)
}

// errNonPositiveLifetime rejects a lifetime of zero or fewer years.
var errNonPositiveLifetime = errors.New("core: non-positive lifetime")

// Footprint is the complete Eq. 1 decomposition over a system lifetime.
type Footprint struct {
	System   string
	Years    float64
	Embodied units.Liters
	Direct   units.Liters
	Indirect units.Liters
}

// Total is Eq. 1.
func (f Footprint) Total() units.Liters { return f.Embodied + f.Direct + f.Indirect }

// Operational is the lifetime operational component.
func (f Footprint) Operational() units.Liters { return f.Direct + f.Indirect }

// Lifetime assesses a full system life: one simulated year of operation
// scaled to the given lifetime plus the one-time embodied footprint.
func (c Config) Lifetime(years float64) (Footprint, error) {
	a, err := c.Assess()
	if err != nil {
		return Footprint{}, err
	}
	b, err := c.EmbodiedBreakdown()
	if err != nil {
		return Footprint{}, err
	}
	return c.LifetimeFromBreakdown(a, b, years)
}

// LifetimeFromBreakdown scales an assessed year using an already-computed
// embodied breakdown, so callers that need both (the Engine's request
// path) derive the breakdown once.
// It is small enough to inline, so a caller holding a *Config copies no
// configuration to call it.
func (c Config) LifetimeFromBreakdown(a Annual, b embodied.Breakdown, years float64) (Footprint, error) {
	if years <= 0 {
		return Footprint{}, errNonPositiveLifetime
	}
	return Footprint{
		System:   c.System.Name,
		Years:    years,
		Embodied: b.Total(),
		Direct:   a.Direct * units.Liters(years),
		Indirect: a.Indirect * units.Liters(years),
	}, nil
}

// AllConfigs returns the ready-made configs for the four paper systems in
// Table 1 order.
func AllConfigs() ([]Config, error) {
	out := make([]Config, 0, 4)
	for _, s := range hardware.Systems() {
		c, err := ConfigFor(s.Name)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}
