package energy

import (
	"fmt"
	"math"
	"sort"

	"thirstyflops/internal/units"
)

// Mix is an electricity generation mix: the fraction of delivered energy
// coming from each source. A valid mix has non-negative shares summing
// to 1 (Table 2's mix% parameter).
type Mix map[Source]float64

// Validate checks that shares are non-negative and sum to 1 within tol.
func (m Mix) Validate() error { return m.shares().Validate() }

// Normalized returns a copy of the mix rescaled to sum to 1. A mix whose
// total share is zero is returned unchanged. Accumulation runs in the
// stable source order so results are bit-reproducible.
func (m Mix) Normalized() Mix {
	sum := 0.0
	for _, s := range AllSources() {
		if w := m[s]; w > 0 {
			sum += w
		}
	}
	out := make(Mix, len(m))
	if sum == 0 {
		for s, w := range m {
			out[s] = w
		}
		return out
	}
	for s, w := range m {
		if w < 0 {
			w = 0
		}
		out[s] = w / sum
	}
	return out
}

// shares resolves the mix into its fixed per-source array; keys outside
// the modeled sources are dropped.
func (m Mix) shares() Shares {
	var out Shares
	for s, w := range m {
		if s.valid() {
			out[s] = w
		}
	}
	return out
}

// Clone returns an independent copy of the mix.
func (m Mix) Clone() Mix {
	out := make(Mix, len(m))
	for s, w := range m {
		out[s] = w
	}
	return out
}

// Share returns the fraction contributed by the source (0 if absent).
func (m Mix) Share(s Source) float64 { return m[s] }

// EWF computes the energy water factor of the mix: the share-weighted sum
// of per-source EWFs (Eq. 7). The overrides map, if non-nil, substitutes
// region-specific factors (e.g. once-through-cooled nuclear fleets).
// Accumulation runs in the stable source order for reproducibility.
func (m Mix) EWF(overrides map[Source]units.LPerKWh) units.LPerKWh {
	f := factors(Source.EWF, overrides)
	return units.LPerKWh(m.shares().weigh(&f, sourceOrder[:]))
}

// CarbonIntensity computes the share-weighted carbon intensity of the mix.
func (m Mix) CarbonIntensity(overrides map[Source]units.GCO2PerKWh) units.GCO2PerKWh {
	f := factors(Source.CarbonIntensity, overrides)
	return units.GCO2PerKWh(m.shares().weigh(&f, sourceOrder[:]))
}

// factors resolves a per-source factor table: the Fig. 5 median of each
// source, or its override when the map has one.
func factors[F ~float64](median func(Source) F, overrides map[Source]F) (out [numSources]float64) {
	for i := range out {
		s := Source(i)
		f := median(s)
		if o, ok := overrides[s]; ok {
			f = o
		}
		out[i] = float64(f)
	}
	return out
}

// RenewableShare returns the total share of renewable sources.
func (m Mix) RenewableShare() float64 {
	total := 0.0
	for _, s := range AllSources() {
		if s.Renewable() {
			total += m[s]
		}
	}
	return total
}

// Sources returns the sources present in the mix with positive share, in
// stable (declaration) order.
func (m Mix) Sources() []Source {
	out := make([]Source, 0, len(m))
	for s, w := range m {
		if w > 0 {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the mix as "source:share%" pairs in stable order.
func (m Mix) String() string {
	srcs := m.Sources()
	s := ""
	for i, src := range srcs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s:%.1f%%", src, m[src]*100)
	}
	return s
}

// Shares is one hour's generation mix as a fixed array indexed by Source,
// with absent sources at 0: the simulator's hourly counterpart of the
// Mix map, which stays the configuration type.
type Shares [numSources]float64

// Share returns the fraction contributed by the source (0 if out of range).
func (m Shares) Share(s Source) float64 {
	if !s.valid() {
		return 0
	}
	return m[s]
}

// Validate checks that shares are non-negative and sum to 1 within tol.
func (m Shares) Validate() error {
	sum := 0.0
	for s, w := range m {
		if w < 0 {
			return fmt.Errorf("energy: negative share %v for %v", w, Source(s))
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("energy: mix shares sum to %v, want 1", sum)
	}
	return nil
}

// normalize rescales the shares to sum to 1 with the arithmetic of
// Mix.Normalized: negative shares count as 0, and shares whose total is
// zero are left unchanged. Only the sources in over (in source order)
// are read or rescaled; every other share must be 0, which it stays, so
// the result is the same as over every source, bit for bit.
func (m *Shares) normalize(over []Source) {
	sum := 0.0
	for _, s := range over {
		if w := m[s]; w > 0 {
			sum += w
		}
	}
	if sum == 0 {
		return
	}
	for _, s := range over {
		w := m[s]
		if w < 0 {
			w = 0
		}
		m[s] = w / sum
	}
}

// weigh returns the share-weighted sum of per-source factors (Eq. 7),
// accumulated over the sources in over, in source order. A source left
// out must have share 0 and a finite factor: its term would add +0,
// which leaves the sum exact because shares are non-negative.
func (m Shares) weigh(f *[numSources]float64, over []Source) float64 {
	total := 0.0
	for _, s := range over {
		total += m[s] * f[s]
	}
	return total
}

// --- Scenario mixes (Sec. 5, Fig. 14) ---

// PureMix returns a mix generated 100 % from one source.
func PureMix(s Source) Mix { return Mix{s: 1} }

// CleanRenewableMix is the paper's "other renewable energy mix": highly
// renewable, non-water-intensive sources (solar, wind, with a sliver of
// biomass firming).
func CleanRenewableMix() Mix {
	return Mix{Solar: 0.45, Wind: 0.45, Biomass: 0.10}
}

// WaterIntensiveRenewableMix is the paper's "water-intensive renewable
// energy mix": hydro-dominated with geothermal.
func WaterIntensiveRenewableMix() Mix {
	return Mix{Hydro: 0.80, Geothermal: 0.20}
}

// Scenario identifies one of the five energy-sourcing scenarios compared in
// Fig. 14.
type Scenario int

// Scenarios of Fig. 14, in presentation order.
const (
	CurrentMixScenario Scenario = iota
	Coal100Scenario
	Nuclear100Scenario
	CleanRenewableScenario
	WaterIntensiveRenewableScenario
)

// String names the scenario as in the paper's legend.
func (sc Scenario) String() string {
	switch sc {
	case CurrentMixScenario:
		return "Current Energy Mix"
	case Coal100Scenario:
		return "100% Coal Usage"
	case Nuclear100Scenario:
		return "100% Nuclear Usage"
	case CleanRenewableScenario:
		return "Other Renewable Energy Mix"
	case WaterIntensiveRenewableScenario:
		return "Water-Intensive Renewable Energy Mix"
	}
	return fmt.Sprintf("scenario(%d)", int(sc))
}

// AllScenarios lists the five Fig. 14 scenarios.
func AllScenarios() []Scenario {
	return []Scenario{
		CurrentMixScenario, Coal100Scenario, Nuclear100Scenario,
		CleanRenewableScenario, WaterIntensiveRenewableScenario,
	}
}

// MixFor resolves the scenario into a concrete mix, given the region's
// current mix for the baseline scenario.
func (sc Scenario) MixFor(current Mix) Mix {
	switch sc {
	case Coal100Scenario:
		return PureMix(Coal)
	case Nuclear100Scenario:
		return PureMix(Nuclear)
	case CleanRenewableScenario:
		return CleanRenewableMix()
	case WaterIntensiveRenewableScenario:
		return WaterIntensiveRenewableMix()
	default:
		return current.Clone()
	}
}
