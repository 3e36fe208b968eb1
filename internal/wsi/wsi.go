// Package wsi models regional water scarcity: the AWARE-style weighting
// factors that convert volumetric water consumption into scarcity-adjusted
// consumption (Eq. 9 of the paper). It provides:
//
//   - site-level AWARE-global factors for the four paper locations and the
//     manufacturing hubs (Fig. 8b);
//   - the direct/indirect WSI composition for HPC centers drawing power
//     from multiple plants in different basins (Fig. 9);
//   - US state-level AWARE-US factors (Fig. 1b);
//   - synthetic county-level scarcity fields for Illinois and Tennessee
//     demonstrating kilometre-scale variation (Fig. 10).
package wsi

import (
	"fmt"

	"thirstyflops/internal/fingerprint"
	"thirstyflops/internal/stats"
	"thirstyflops/internal/units"
)

// SiteFactor carries the AWARE-global scarcity factor of a named location.
// These are the sub-1 values plotted in the paper's Fig. 8(b).
type SiteFactor struct {
	Site   string
	Factor units.WSI
}

// siteFactors lists AWARE-global characterization factors for the HPC
// sites and the semiconductor manufacturing hubs. Lemont sits in the
// Chicago-area basin whose scarcity factor dominates the four sites —
// the driver behind Polaris' Fig. 8(c) ranking flip.
var siteFactors = []SiteFactor{
	{"Bologna", 0.30},
	{"Kobe", 0.22},
	{"Lemont", 0.62},
	{"Oak Ridge", 0.27},
	// Manufacturing hubs (embodied footprint weighting, Fig. 4 discussion).
	{"Hsinchu", 0.58},  // TSMC, Taiwan — recurrent drought basin
	{"Malta NY", 0.18}, // GlobalFoundries, upstate New York
	{"Icheon", 0.35},   // SK hynix, Korea
	{"Boise", 0.55},    // Micron, Idaho — arid basin
	{"Phoenix", 0.92},  // desert fabs
	{"Portland", 0.20}, // Intel Oregon
	// Outlook HPC sites (paper Sec. 6b).
	{"Livermore", 0.58}, // Bay Area-adjacent Central Valley stress
}

// SiteWSI returns the AWARE-global factor for a known site.
func SiteWSI(site string) (units.WSI, error) {
	for _, s := range siteFactors {
		if s.Site == site {
			return s.Factor, nil
		}
	}
	return 0, fmt.Errorf("wsi: unknown site %q", site)
}

// --- Direct / indirect composition (Fig. 9) ---

// PowerPlant is an electricity source feeding an HPC center, with the
// scarcity factor of the basin hosting the plant and the share of the
// center's supply it provides.
type PowerPlant struct {
	Name  string
	WSI   units.WSI
	Share float64 // fraction of delivered energy, 0-1
}

// Profile is the scarcity context of an HPC center: the WSI at the
// datacenter itself (weighting the direct footprint) plus the plants
// supplying its electricity (weighting the indirect footprint).
type Profile struct {
	Direct units.WSI
	Plants []PowerPlant
}

// Fingerprint writes the scarcity context: the direct factor and every
// feeding plant in declaration order.
func (p Profile) Fingerprint(h *fingerprint.Hasher) {
	h.Float(float64(p.Direct))
	h.Len(len(p.Plants))
	for _, pl := range p.Plants {
		h.String(pl.Name)
		h.Float(float64(pl.WSI))
		h.Float(pl.Share)
	}
}

// Validate checks the profile: non-negative factors and plant shares that
// sum to 1.
func (p Profile) Validate() error {
	if p.Direct < 0 {
		return fmt.Errorf("wsi: negative direct WSI %v", p.Direct)
	}
	if len(p.Plants) == 0 {
		return nil // indirect falls back to the direct factor
	}
	sum := 0.0
	for _, pl := range p.Plants {
		if pl.Share < 0 {
			return fmt.Errorf("wsi: plant %s has negative share", pl.Name)
		}
		if pl.WSI < 0 {
			return fmt.Errorf("wsi: plant %s has negative WSI", pl.Name)
		}
		sum += pl.Share
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("wsi: plant shares sum to %v, want 1", sum)
	}
	return nil
}

// Indirect computes the supply-weighted scarcity factor over the feeding
// plants — the WSI_indirect = f(WSI_1..WSI_n) composition of the paper's
// Fig. 9. A profile without plants falls back to the direct factor (the
// common single-basin case).
func (p Profile) Indirect() units.WSI {
	if len(p.Plants) == 0 {
		return p.Direct
	}
	total, wsum := 0.0, 0.0
	for _, pl := range p.Plants {
		total += pl.Share * float64(pl.WSI)
		wsum += pl.Share
	}
	if wsum == 0 {
		return p.Direct
	}
	return units.WSI(total / wsum)
}

// AdjustedIntensity applies the scarcity profile to a split water
// intensity: direct intensity scales by the site WSI, indirect intensity
// by the supply-weighted WSI (extended Eq. 9).
func (p Profile) AdjustedIntensity(direct, indirect units.LPerKWh) units.LPerKWh {
	return units.LPerKWh(float64(direct)*float64(p.Direct) +
		float64(indirect)*float64(p.Indirect()))
}

// --- US state-level AWARE-US factors (Fig. 1b) ---

// StateWSI carries an AWARE-US style state-level scarcity index on the
// 0.1-100 log scale of the paper's Fig. 1(b).
type StateWSI struct {
	Code  string
	Index float64
}

// stateWSITable approximates AWARE-US state aggregates: arid Southwest
// states score orders of magnitude above the humid East.
var stateWSITable = []StateWSI{
	{"AL", 0.4}, {"AK", 0.1}, {"AZ", 62}, {"AR", 0.7}, {"CA", 34},
	{"CO", 22}, {"CT", 0.5}, {"DE", 0.9}, {"FL", 1.1}, {"GA", 0.8},
	{"HI", 1.5}, {"ID", 9}, {"IL", 2.4}, {"IN", 1.2}, {"IA", 1.5},
	{"KS", 12}, {"KY", 0.5}, {"LA", 0.4}, {"ME", 0.2}, {"MD", 0.8},
	{"MA", 0.5}, {"MI", 0.6}, {"MN", 0.9}, {"MS", 0.5}, {"MO", 1.0},
	{"MT", 4}, {"NE", 8}, {"NV", 55}, {"NH", 0.3}, {"NJ", 0.7},
	{"NM", 48}, {"NY", 0.4}, {"NC", 0.7}, {"ND", 3}, {"OH", 0.9},
	{"OK", 6}, {"OR", 2.5}, {"PA", 0.6}, {"RI", 0.5}, {"SC", 0.6},
	{"SD", 4}, {"TN", 0.5}, {"TX", 18}, {"UT", 40}, {"VT", 0.2},
	{"VA", 0.7}, {"WA", 1.8}, {"WV", 0.3}, {"WI", 0.8}, {"WY", 15},
}

// StateIndex looks up one state's scarcity index.
func StateIndex(code string) (float64, bool) {
	for _, s := range stateWSITable {
		if s.Code == code {
			return s.Index, true
		}
	}
	return 0, false
}

// --- County-level synthetic fields (Fig. 10) ---

// County is one county's scarcity factor within a state field.
type County struct {
	Name  string
	Index float64
}

// CountyField generates a deterministic synthetic county-level scarcity
// field for a state: n counties whose indices scatter log-normally around
// the state mean within [lo, hi]. The paper's Fig. 10 shows Illinois
// spanning roughly 0.30-0.70 and Tennessee 0.20-0.40 — scarcity varies
// at kilometre scale, so an HPC center's indirect WSI depends on exactly
// which nearby grid feeds it (Takeaway 6).
func CountyField(state string, n int, lo, hi float64, seed uint64) []County {
	if n <= 0 || hi <= lo {
		return nil
	}
	rng := stats.NewRNG(seed ^ hashString(state))
	mid := (lo + hi) / 2
	span := (hi - lo) / 2
	out := make([]County, n)
	for i := range out {
		// Smooth spatial gradient plus local noise, clamped to the band.
		gradient := span * 0.7 * (2*float64(i)/float64(max(1, n-1)) - 1)
		v := stats.Clamp(mid+gradient+rng.NormMeanStd(0, span*0.35), lo, hi)
		out[i] = County{Name: fmt.Sprintf("%s-C%02d", state, i+1), Index: v}
	}
	return out
}

// IllinoisCounties returns the synthetic Illinois county field matching
// Fig. 10's 0.30-0.70 band.
func IllinoisCounties() []County { return CountyField("IL", 102, 0.30, 0.70, 1) }

// TennesseeCounties returns the synthetic Tennessee county field matching
// Fig. 10's 0.20-0.40 band.
func TennesseeCounties() []County { return CountyField("TN", 95, 0.20, 0.40, 1) }

// FieldStats summarizes a county field for reporting.
type FieldStats struct {
	Min, Median, Max float64
	Spread           float64 // max/min ratio: the paper's "varies at km scale"
}

// SummarizeField computes range statistics over a county field.
func SummarizeField(cs []County) FieldStats {
	if len(cs) == 0 {
		return FieldStats{}
	}
	vals := make([]float64, len(cs))
	for i, c := range cs {
		vals[i] = c.Index
	}
	fs := FieldStats{
		Min:    stats.Min(vals),
		Median: stats.Median(vals),
		Max:    stats.Max(vals),
	}
	if fs.Min > 0 {
		fs.Spread = fs.Max / fs.Min
	}
	return fs
}

func hashString(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
