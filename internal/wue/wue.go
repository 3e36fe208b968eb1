// Package wue models Water Usage Effectiveness — the litres of water the
// facility consumes to cool one kilowatt-hour of IT energy (Eq. 6 of the
// paper). WUE is a function of the outside wet-bulb temperature: when the
// outside air is cool, economizers cool the datacenter nearly for free;
// as the wet-bulb temperature rises the cooling towers must evaporate
// increasing volumes of water.
//
// Two layers are provided:
//
//   - Curve: the empirical WUE(T_wb) relationship used by the footprint
//     models, matching the paper's Table 2 behaviour (WUE > 0.05 L/kWh,
//     derived from wet-bulb temperature).
//   - Tower: a cooling-tower mass balance (evaporation / blowdown / drift)
//     that separates water *consumption* from water *withdrawal*, feeding
//     the withdrawal model of Sec. 6.
package wue

import (
	"fmt"
	"math"

	"thirstyflops/internal/fingerprint"
	"thirstyflops/internal/stats"
	"thirstyflops/internal/units"
)

// Curve is an empirical WUE model parameterized by four quantities:
// a floor (economizer-mode consumption), a free-cooling cutoff wet-bulb
// temperature, a quadratic coefficient controlling how steeply evaporative
// demand grows past the cutoff, and a soft capacity cap modeling the
// tower's finite design evaporation rate.
//
//	raw(T)  = Floor                          for T <= Cutoff
//	raw(T)  = Floor + Coeff*(T - Cutoff)^2   for T >  Cutoff
//	WUE(T)  = Floor + (Cap-Floor)*tanh((raw-Floor)/(Cap-Floor))  if Cap > Floor
//	WUE(T)  = raw(T)                                             if Cap == 0
type Curve struct {
	Floor  units.LPerKWh // minimum consumption, economizer mode
	Cutoff units.Celsius // wet-bulb temperature where evaporation starts
	Coeff  float64       // L/kWh per (°C)^2 past the cutoff
	Cap    units.LPerKWh // soft saturation; 0 disables the cap
}

// DefaultCurve returns the curve used for all four paper systems. The
// coefficient and cap are calibrated so annual-mean WUE lands near
// 3-4 L/kWh at the warm humid sites and the annual range spans roughly
// 0-12 L/kWh as in the paper's Fig. 6(b).
func DefaultCurve() Curve {
	return Curve{Floor: 0.05, Cutoff: 2.0, Coeff: 0.026, Cap: 13}
}

// Validate reports whether the curve is physically plausible.
func (c Curve) Validate() error {
	switch {
	case c.Floor < 0:
		return fmt.Errorf("wue: negative floor %v", c.Floor)
	case c.Coeff < 0:
		return fmt.Errorf("wue: negative coefficient %v", c.Coeff)
	case c.Cap != 0 && c.Cap <= c.Floor:
		return fmt.Errorf("wue: cap %v must exceed floor %v", c.Cap, c.Floor)
	}
	return nil
}

// At evaluates the curve at a wet-bulb temperature.
func (c Curve) At(wetBulb units.Celsius) units.LPerKWh {
	if wetBulb <= c.Cutoff {
		return c.Floor
	}
	d := float64(wetBulb - c.Cutoff)
	raw := float64(c.Floor) + c.Coeff*d*d
	if c.Cap <= c.Floor {
		return units.LPerKWh(raw)
	}
	span := float64(c.Cap - c.Floor)
	return c.Floor + units.LPerKWh(span*math.Tanh((raw-float64(c.Floor))/span))
}

// Series evaluates the curve over a wet-bulb series.
func (c Curve) Series(wetBulbs []units.Celsius) []units.LPerKWh {
	out := make([]units.LPerKWh, len(wetBulbs))
	for i, wb := range wetBulbs {
		out[i] = c.At(wb)
	}
	return out
}

// SeriesFloat is Series with a plain-float result for the stats helpers.
func (c Curve) SeriesFloat(wetBulbs []units.Celsius) []float64 {
	out := make([]float64, len(wetBulbs))
	for i, wb := range wetBulbs {
		out[i] = float64(c.At(wb))
	}
	return out
}

// Fingerprint writes every field that shapes the curve.
func (c Curve) Fingerprint(h *fingerprint.Hasher) {
	h.Float(float64(c.Floor))
	h.Float(float64(c.Cutoff))
	h.Float(c.Coeff)
	h.Float(float64(c.Cap))
}

// --- Cooling-tower mass balance ---

// LatentHeatKWhPerLiter is the heat removed by evaporating one litre of
// water (2.45 MJ/kg at ~25 °C ≈ 0.68 kWh/L).
const LatentHeatKWhPerLiter = 0.68

// Tower is a wet cooling tower model. The tower rejects the facility heat
// load partly by evaporation (consumptive) and partly by sensible heat
// transfer. Makeup water replaces evaporation, drift, and blowdown;
// blowdown is discharged back to the source so it counts as withdrawal but
// not consumption.
type Tower struct {
	// CyclesOfConcentration is the ratio of dissolved-solid concentration
	// in the basin to the makeup supply; blowdown = evaporation / (C - 1).
	// Typical industrial towers run 3-6 cycles.
	CyclesOfConcentration float64
	// DriftFraction is the fraction of circulating water lost as droplets;
	// modern drift eliminators hold this near 0.1-0.2 % of evaporation.
	DriftFraction float64
}

// DefaultTower returns a tower with typical parameters (4 cycles of
// concentration, 0.2 % drift).
func DefaultTower() Tower {
	return Tower{CyclesOfConcentration: 4, DriftFraction: 0.002}
}

// Validate reports whether the tower parameters are physically plausible.
func (t Tower) Validate() error {
	switch {
	case t.CyclesOfConcentration <= 1:
		return fmt.Errorf("wue: cycles of concentration must exceed 1, got %v", t.CyclesOfConcentration)
	case t.DriftFraction < 0 || t.DriftFraction > 0.05:
		return fmt.Errorf("wue: drift fraction %v out of range", t.DriftFraction)
	}
	return nil
}

// EvaporativeFraction returns the fraction of the heat load rejected by
// evaporation (rather than sensible transfer) at a given wet-bulb
// temperature. When the outside air is cold most heat leaves sensibly;
// approaching design conditions essentially all heat leaves as latent heat.
func (t Tower) EvaporativeFraction(wetBulb units.Celsius) float64 {
	return stats.Clamp(0.35+0.022*float64(wetBulb), 0.15, 0.98)
}

// Balance is the water budget of rejecting a heat load.
type Balance struct {
	Evaporation units.Liters // consumed: leaves as vapor
	Drift       units.Liters // consumed: droplet carry-over
	Blowdown    units.Liters // withdrawn and discharged
}

// Consumption is the consumed share of the balance (evaporation + drift),
// matching the paper's definition of water footprint.
func (b Balance) Consumption() units.Liters { return b.Evaporation + b.Drift }

// Withdrawal is the total makeup water drawn from the source.
func (b Balance) Withdrawal() units.Liters {
	return b.Evaporation + b.Drift + b.Blowdown
}

// Reject computes the water balance for rejecting heat kWh of thermal load
// at the given wet-bulb temperature.
func (t Tower) Reject(heat units.KWh, wetBulb units.Celsius) Balance {
	if heat < 0 {
		heat = 0
	}
	evapHeat := float64(heat) * t.EvaporativeFraction(wetBulb)
	evap := units.Liters(evapHeat / LatentHeatKWhPerLiter)
	drift := units.Liters(float64(evap) * t.DriftFraction)
	blowdown := units.Liters(float64(evap) / (t.CyclesOfConcentration - 1))
	return Balance{Evaporation: evap, Drift: drift, Blowdown: blowdown}
}

// ImpliedWUE converts a tower balance into an effective WUE for an IT
// energy amount: consumption per IT kWh. The heat load of a facility
// approximately equals its total energy draw, i.e. IT energy times PUE.
func (t Tower) ImpliedWUE(itEnergy units.KWh, pue units.PUE, wetBulb units.Celsius) units.LPerKWh {
	if itEnergy <= 0 {
		return 0
	}
	heat := units.KWh(float64(itEnergy) * float64(pue))
	b := t.Reject(heat, wetBulb)
	return units.LPerKWh(float64(b.Consumption()) / float64(itEnergy))
}

// YearBalance integrates the tower mass balance over parallel hourly
// series of IT energy and wet-bulb temperature: the facility heat load is
// IT energy times PUE each hour. The result separates consumption
// (evaporation + drift) from the blowdown that the Sec. 6 withdrawal
// model treats as discharged — replacing ad-hoc discharge assumptions
// with the tower's own physics.
func (t Tower) YearBalance(itEnergy []units.KWh, pue units.PUE, wetBulbs []units.Celsius) (Balance, error) {
	if len(itEnergy) != len(wetBulbs) {
		return Balance{}, fmt.Errorf("wue: series lengths differ (%d vs %d)", len(itEnergy), len(wetBulbs))
	}
	if err := t.Validate(); err != nil {
		return Balance{}, err
	}
	if !pue.Valid() {
		return Balance{}, fmt.Errorf("wue: invalid PUE %v", pue)
	}
	var total Balance
	for h := range itEnergy {
		heat := units.KWh(float64(itEnergy[h]) * float64(pue))
		b := t.Reject(heat, wetBulbs[h])
		total.Evaporation += b.Evaporation
		total.Drift += b.Drift
		total.Blowdown += b.Blowdown
	}
	return total, nil
}
