package core

import (
	"fmt"

	"thirstyflops/internal/units"
)

// WithdrawalParams carries the Table 3 inputs of the paper's Sec. 6
// water-withdrawal extension. Withdrawal is derived from consumption,
// normalized discharge, and reuse; the potable/non-potable split weights
// the result by source scarcity.
type WithdrawalParams struct {
	// ActualDischarge is the reported discharge volume returned to the
	// environment (W_actual_discharge).
	ActualDischarge units.Liters
	// OutfallFactor (L_k) scales discharge by receiving-environment
	// sensitivity: wetlands purify (< 1), rivers are neutral (1), closed
	// basins amplify (> 1).
	OutfallFactor float64
	// PollutantHazard (P_j) scales discharge by pollutant severity (BOD,
	// COD, heavy metals); 1 is clean cooling blowdown.
	PollutantHazard float64
	// ReuseRate (rho) is the recycled fraction of discharge, 0-1.
	ReuseRate float64
	// PotableFraction (beta_potable) splits the withdrawal by source;
	// the remainder is non-potable.
	PotableFraction float64
	// Scarcity factors (S_potable, S_non-potable), 0-1, higher = scarcer.
	PotableScarcity    float64
	NonPotableScarcity float64
}

// DefaultWithdrawalParams returns a neutral river outfall with clean
// blowdown, 20 % reuse, and a mostly non-potable supply — a typical
// datacenter water contract.
func DefaultWithdrawalParams(discharge units.Liters) WithdrawalParams {
	return WithdrawalParams{
		ActualDischarge: discharge,
		OutfallFactor:   1.0,
		PollutantHazard: 1.0,
		ReuseRate:       0.2,
		PotableFraction: 0.3,
		PotableScarcity: 0.6, NonPotableScarcity: 0.2,
	}
}

// Validate checks the Table 3 ranges.
func (p WithdrawalParams) Validate() error {
	switch {
	case p.ActualDischarge < 0:
		return fmt.Errorf("core: negative discharge")
	case p.OutfallFactor < 0:
		return fmt.Errorf("core: negative outfall factor")
	case p.PollutantHazard < 0:
		return fmt.Errorf("core: negative pollutant hazard")
	case p.ReuseRate < 0 || p.ReuseRate > 1:
		return fmt.Errorf("core: reuse rate %v outside 0-100%%", p.ReuseRate)
	case p.PotableFraction < 0 || p.PotableFraction > 1:
		return fmt.Errorf("core: potable fraction %v outside 0-100%%", p.PotableFraction)
	case p.PotableScarcity < 0 || p.PotableScarcity > 1,
		p.NonPotableScarcity < 0 || p.NonPotableScarcity > 1:
		return fmt.Errorf("core: scarcity factors must lie in [0,1]")
	}
	return nil
}

// Withdrawal is the derived Table 3 accounting.
type Withdrawal struct {
	Consumption       units.Liters // evaporated or otherwise removed
	AdjustedDischarge units.Liters // discharge normalized by L_k and P_j
	Reuse             units.Liters // recycled fraction of discharge
	Gross             units.Liters // total drawn from sources
	ScarcityWeighted  units.Liters // gross weighted by source scarcity
}

// ComputeWithdrawal derives withdrawal from a consumption figure and the
// Table 3 parameters: withdrawal = consumption + discharge, reuse offsets
// fresh intake, and the potable split weights the result by scarcity.
func ComputeWithdrawal(consumption units.Liters, p WithdrawalParams) (Withdrawal, error) {
	if consumption < 0 {
		return Withdrawal{}, fmt.Errorf("core: negative consumption")
	}
	if err := p.Validate(); err != nil {
		return Withdrawal{}, err
	}
	adj := units.Liters(float64(p.ActualDischarge) * p.OutfallFactor * p.PollutantHazard)
	reuse := units.Liters(float64(p.ActualDischarge) * p.ReuseRate)
	gross := consumption + units.Liters(float64(p.ActualDischarge)*(1-p.ReuseRate))
	weight := p.PotableFraction*p.PotableScarcity + (1-p.PotableFraction)*p.NonPotableScarcity
	return Withdrawal{
		Consumption:       consumption,
		AdjustedDischarge: adj,
		Reuse:             reuse,
		Gross:             gross,
		ScarcityWeighted:  units.Liters(float64(gross) * weight),
	}, nil
}

// DefaultWithdrawal derives a's withdrawal under the default contract
// (DefaultWithdrawalParams). The discharge is cooling-tower blowdown at 4
// cycles of concentration: blowdown is evaporation / (cycles - 1), a third
// of the year's direct (evaporated) water.
func (a Annual) DefaultWithdrawal() (Withdrawal, error) {
	discharge := units.Liters(float64(a.Direct) / 3)
	return ComputeWithdrawal(a.Operational(), DefaultWithdrawalParams(discharge))
}
