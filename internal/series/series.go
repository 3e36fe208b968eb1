// Package series defines the typed hourly timeline that carries assessed
// data across package boundaries. A Series keeps the four channels of one
// simulated period — IT energy, direct water intensity (WUE), grid energy
// water factor (EWF), and grid carbon intensity — aligned by construction,
// together with the facility PUE that relates IT energy to facility
// energy. Replacing the seed's loose parallel []float64-style slices with
// one value eliminates the misaligned-length error class: a validated
// Series cannot have channels of different lengths.
//
// Channels are read-only once a Series is constructed. From aliases the
// slices it is given and Slice the channels of its series, so one
// intensity channel may back many series at once: every year assessed
// at the same site, grid and seed shares the memoized WUE, EWF and
// carbon hours, and a live timeline shares them with the simulated year
// it was spliced from. Clone before you mutate any channel.
package series

import (
	"bufio"
	"fmt"
	"io"

	"thirstyflops/internal/units"
)

// Series is one aligned hourly timeline. The zero value is an empty,
// invalid series; build one with New, From, or FromIntensities.
type Series struct {
	// PUE converts the IT energy channel into facility energy for the
	// indirect (Eq. 7) and carbon terms.
	PUE units.PUE `json:"pue"`

	Energy []units.KWh        `json:"energy_kwh"`       // IT energy per hour
	WUE    []units.LPerKWh    `json:"wue_l_per_kwh"`    // direct water intensity
	EWF    []units.LPerKWh    `json:"ewf_l_per_kwh"`    // grid energy water factor
	Carbon []units.GCO2PerKWh `json:"carbon_g_per_kwh"` // grid carbon intensity
}

// New allocates an aligned series of n zeroed hours.
func New(pue units.PUE, n int) (Series, error) {
	if n < 0 {
		return Series{}, fmt.Errorf("series: negative length %d", n)
	}
	s := Series{
		PUE:    pue,
		Energy: make([]units.KWh, n),
		WUE:    make([]units.LPerKWh, n),
		EWF:    make([]units.LPerKWh, n),
		Carbon: make([]units.GCO2PerKWh, n),
	}
	if err := s.Validate(); err != nil {
		return Series{}, err
	}
	return s, nil
}

// From assembles a series from existing channels, validating alignment.
// The channels are aliased, not copied: the caller must not write to
// them afterwards.
func From(pue units.PUE, energy []units.KWh, wue, ewf []units.LPerKWh,
	carbon []units.GCO2PerKWh) (Series, error) {
	s := Series{PUE: pue, Energy: energy, WUE: wue, EWF: ewf, Carbon: carbon}
	if err := s.Validate(); err != nil {
		return Series{}, err
	}
	return s, nil
}

// FromIntensities assembles a series with a zeroed energy channel, for
// intensity-only uses such as start-time ranking of a job whose energy is
// supplied separately.
func FromIntensities(pue units.PUE, wue, ewf []units.LPerKWh,
	carbon []units.GCO2PerKWh) (Series, error) {
	return From(pue, make([]units.KWh, len(wue)), wue, ewf, carbon)
}

// Len is the number of hours in the series.
func (s Series) Len() int { return len(s.Energy) }

// Validate checks the invariants: a physical PUE and four channels of
// equal length.
func (s Series) Validate() error {
	if !s.PUE.Valid() {
		return fmt.Errorf("series: PUE %v < 1", s.PUE)
	}
	n := len(s.Energy)
	if len(s.WUE) != n || len(s.EWF) != n || len(s.Carbon) != n {
		return fmt.Errorf("series: misaligned channels (energy %d, wue %d, ewf %d, carbon %d)",
			n, len(s.WUE), len(s.EWF), len(s.Carbon))
	}
	return nil
}

// WaterIntensityAt is the total water intensity WI(t) of one hour
// (Eq. 8): WUE + PUE·EWF.
func (s Series) WaterIntensityAt(h int) units.LPerKWh {
	return s.WUE[h] + units.LPerKWh(float64(s.PUE)*float64(s.EWF[h]))
}

// WaterIntensity materializes the WI(t) channel — the input to the
// Fig. 13 start-time ranking.
func (s Series) WaterIntensity() []units.LPerKWh {
	out := make([]units.LPerKWh, s.Len())
	for h := range out {
		out[h] = s.WaterIntensityAt(h)
	}
	return out
}

// WaterAt is the operational water consumed in one hour: direct cooling
// plus indirect generation water (Eqs. 6-7).
func (s Series) WaterAt(h int) units.Liters {
	return units.Liters(float64(s.Energy[h]) * float64(s.WaterIntensityAt(h)))
}

// CarbonAt is the operational carbon emitted in one hour, charged at
// facility energy.
func (s Series) CarbonAt(h int) units.GramsCO2 {
	return units.GramsCO2(float64(s.Energy[h]) * float64(s.PUE) * float64(s.Carbon[h]))
}

// Totals aggregates the series into the Eq. 1 operational components,
// plus the annual-mean water intensities (Eq. 8) summed in the same pass.
type Totals struct {
	Energy   units.KWh      // IT energy
	Direct   units.Liters   // E · WUE
	Indirect units.Liters   // E · PUE · EWF
	Carbon   units.GramsCO2 // E · PUE · CI

	// MeanDirect and MeanIndirect equal MeanWaterIntensity's direct and
	// indirect results bit for bit.
	MeanDirect   units.LPerKWh // mean WUE
	MeanIndirect units.LPerKWh // mean PUE · EWF
}

// Operational is direct plus indirect water.
func (t Totals) Operational() units.Liters { return t.Direct + t.Indirect }

// Totals integrates the full series. The intensity sums d and i keep
// MeanWaterIntensity's order and expression shape, so the means match it.
func (s Series) Totals() Totals {
	n := s.Len()
	energy, wue, ewf, ci := s.Energy[:n], s.WUE[:n], s.EWF[:n], s.Carbon[:n]
	var f Fold
	var d, i float64
	pue := float64(s.PUE)
	for h := range energy {
		f = f.add(float64(energy[h]), float64(wue[h]), float64(ewf[h]), float64(ci[h]), pue)
		d += float64(wue[h])
		i += pue * float64(ewf[h])
	}
	t := f.Totals()
	if n > 0 {
		t.MeanDirect = units.LPerKWh(d / float64(n))
		t.MeanIndirect = units.LPerKWh(i / float64(n))
	}
	return t
}

// Fold is the running state of Totals' four energy-weighted sums after
// a prefix of the hours. Totals and Checkpoints.Resume both advance it
// with one add per hour, in hour order, so a fold resumed from a
// checkpoint ends bit-identical to a full Totals pass.
type Fold struct {
	Energy, Direct, Indirect, Carbon float64
}

// add returns the fold after an hour drawing energy e at intensities
// wue, ewf and ci. It takes and returns values, not a Series or a
// pointer, so an inlined loop keeps the four sums in registers.
func (f Fold) add(e, wue, ewf, ci, pue float64) Fold {
	return Fold{
		Energy:   f.Energy + e,
		Direct:   f.Direct + e*wue,
		Indirect: f.Indirect + e*pue*ewf,
		Carbon:   f.Carbon + e*pue*ci,
	}
}

// over returns the fold advanced over hours [lo, hi) of s, each drawing
// its own energy.
func (f Fold) over(s Series, lo, hi int) Fold {
	energy, wue, ewf, ci := s.Energy[lo:hi], s.WUE[lo:hi], s.EWF[lo:hi], s.Carbon[lo:hi]
	pue := float64(s.PUE)
	for h := range energy {
		f = f.add(float64(energy[h]), float64(wue[h]), float64(ewf[h]), float64(ci[h]), pue)
	}
	return f
}

// Totals converts the fold into the Eq. 1 operational components. The
// annual-mean intensities are left zero: they do not depend on energy.
func (f Fold) Totals() Totals {
	return Totals{
		Energy:   units.KWh(f.Energy),
		Direct:   units.Liters(f.Direct),
		Indirect: units.Liters(f.Indirect),
		Carbon:   units.GramsCO2(f.Carbon),
	}
}

// checkpointHours is the spacing of Checkpoints: one fold per day.
const checkpointHours = 24

// Checkpoints holds a series' Fold at every day boundary: entry d is the
// fold of hours [0, 24d). A year's checkpoints take 365 × 32 bytes.
type Checkpoints []Fold

// Checkpoints folds the series once, keeping the state at every day
// boundary.
func (s Series) Checkpoints() Checkpoints {
	n := s.Len()
	out := make(Checkpoints, 0, n/checkpointHours+1)
	var f Fold
	for lo := 0; lo < n; lo += checkpointHours {
		out = append(out, f)
		f = f.over(s, lo, min(lo+checkpointHours, n))
	}
	return out
}

// Resume folds s with energy[i] read in place of hour lo+i wherever
// observed[i] is set, starting from the last checkpoint at or before lo,
// and returns the fold over every hour. c must be s.Checkpoints(). Hours
// before lo are s's own, so the result is bit-identical to the Totals of
// the spliced copy of s, and no copy is made. Entries past the end of s
// are ignored.
func (c Checkpoints) Resume(s Series, lo int, energy []units.KWh, observed []bool) Fold {
	var f Fold
	h, n := 0, s.Len()
	if day := min(max(lo, 0)/checkpointHours, len(c)-1); day >= 0 {
		f, h = c[day], day*checkpointHours
	}
	// Hours [h, from) precede the window, [from, to) are the window's
	// and [to, n) follow it.
	from := min(max(lo, h), n)
	to := min(max(lo+len(observed), from), n)
	f = f.over(s, h, from)
	pue := float64(s.PUE)
	for h := from; h < to; h++ {
		e := s.Energy[h]
		if observed[h-lo] {
			e = energy[h-lo]
		}
		f = f.add(float64(e), float64(s.WUE[h]), float64(s.EWF[h]), float64(s.Carbon[h]), pue)
	}
	return f.over(s, to, n)
}

// MeanWaterIntensity returns the annual-mean direct, indirect, and total
// water intensity (Eq. 8), energy-unweighted as the paper plots them.
func (s Series) MeanWaterIntensity() (direct, indirect, total units.LPerKWh) {
	n := s.Len()
	if n == 0 {
		return 0, 0, 0
	}
	var d, i float64
	pue := float64(s.PUE)
	for h := 0; h < n; h++ {
		d += float64(s.WUE[h])
		i += pue * float64(s.EWF[h])
	}
	direct = units.LPerKWh(d / float64(n))
	indirect = units.LPerKWh(i / float64(n))
	return direct, indirect, direct + indirect
}

// MeanCarbonIntensity is the mean grid carbon intensity over the series.
func (s Series) MeanCarbonIntensity() units.GCO2PerKWh {
	n := s.Len()
	if n == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.Carbon {
		sum += float64(v)
	}
	return units.GCO2PerKWh(sum / float64(n))
}

// Cumulative is the prefix-sum view of a series' intensity channels:
// index h holds the sum over hours [0, h), so any window sum is two loads
// and a subtraction. Build one with Series.Cumulative when evaluating
// many windows (start-time ranking, slack shifting); the O(n) build
// amortizes across O(1) window queries.
type Cumulative struct {
	WaterIntensity []float64 // prefix sums of WI(t) = WUE + PUE·EWF, L/kWh
	Carbon         []float64 // prefix sums of grid carbon intensity, g/kWh
}

// Cumulative computes the prefix sums of the water- and carbon-intensity
// channels.
func (s Series) Cumulative() Cumulative {
	n := s.Len()
	c := Cumulative{
		WaterIntensity: make([]float64, n+1),
		Carbon:         make([]float64, n+1),
	}
	pue := float64(s.PUE)
	for h := 0; h < n; h++ {
		c.WaterIntensity[h+1] = c.WaterIntensity[h] + float64(s.WUE[h]) + pue*float64(s.EWF[h])
		c.Carbon[h+1] = c.Carbon[h] + float64(s.Carbon[h])
	}
	return c
}

// Len is the number of hours covered by the prefix sums.
func (c Cumulative) Len() int { return len(c.WaterIntensity) - 1 }

// WaterIntensitySum returns the summed water intensity over hours
// [lo, hi) in O(1).
func (c Cumulative) WaterIntensitySum(lo, hi int) float64 {
	return c.WaterIntensity[hi] - c.WaterIntensity[lo]
}

// CarbonSum returns the summed carbon intensity over hours [lo, hi) in
// O(1).
func (c Cumulative) CarbonSum(lo, hi int) float64 {
	return c.Carbon[hi] - c.Carbon[lo]
}

// Slice returns the aligned window [lo, hi) sharing the underlying
// channels.
func (s Series) Slice(lo, hi int) (Series, error) {
	if lo < 0 || hi < lo || hi > s.Len() {
		return Series{}, fmt.Errorf("series: window [%d, %d) outside 0..%d", lo, hi, s.Len())
	}
	return Series{
		PUE:    s.PUE,
		Energy: s.Energy[lo:hi],
		WUE:    s.WUE[lo:hi],
		EWF:    s.EWF[lo:hi],
		Carbon: s.Carbon[lo:hi],
	}, nil
}

// Clone deep-copies the series so the caller can mutate it freely; it
// is the only sanctioned way to obtain writable channels from a series
// built elsewhere.
func (s Series) Clone() Series {
	return Series{
		PUE:    s.PUE,
		Energy: append([]units.KWh(nil), s.Energy...),
		WUE:    append([]units.LPerKWh(nil), s.WUE...),
		EWF:    append([]units.LPerKWh(nil), s.EWF...),
		Carbon: append([]units.GCO2PerKWh(nil), s.Carbon...),
	}
}

// Equal reports whether two series are identical hour for hour.
func (s Series) Equal(o Series) bool {
	if s.PUE != o.PUE || s.Len() != o.Len() {
		return false
	}
	for h := range s.Energy {
		if s.Energy[h] != o.Energy[h] || s.WUE[h] != o.WUE[h] ||
			s.EWF[h] != o.EWF[h] || s.Carbon[h] != o.Carbon[h] {
			return false
		}
	}
	return true
}

// --- CSV export ---

// WriteCSV emits the series as "hour,energy_kwh,wue,ewf,wi,carbon" rows
// with a header comment carrying the PUE, compatible with external
// plotting.
func (s Series) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# pue=%.4f\n", float64(s.PUE)); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(bw, "hour,energy_kwh,wue_l_per_kwh,ewf_l_per_kwh,wi_l_per_kwh,carbon_g_per_kwh"); err != nil {
		return err
	}
	for h := range s.Energy {
		if _, err := fmt.Fprintf(bw, "%d,%.3f,%.4f,%.4f,%.4f,%.2f\n",
			h, float64(s.Energy[h]), float64(s.WUE[h]), float64(s.EWF[h]),
			float64(s.WaterIntensityAt(h)), float64(s.Carbon[h])); err != nil {
			return err
		}
	}
	return bw.Flush()
}
