package energy

import (
	"sort"

	"thirstyflops/internal/units"
)

// StateProfile carries the per-US-state quantities visualized in the
// paper's Fig. 1: the grid carbon intensity of the state's major power
// agency and the aggregate power draw of TOP500-listed HPC systems sited
// in the state. (The matching water-scarcity index lives in the wsi
// package.)
type StateProfile struct {
	Code            string // two-letter postal code
	Name            string
	CarbonIntensity units.GCO2PerKWh // major-agency grid intensity
	HPCPowerMW      float64          // aggregate TOP500 power, megawatts
}

// usStates approximates Electricity-Maps-style state carbon intensities
// (gCO2/kWh) and TOP500-aggregated HPC power per state. Coastal states
// trend lower-carbon than inland coal/gas states, matching the Fig. 1(a)
// gradient; HPC power concentrates in DOE-lab states, matching Fig. 1(c).
var usStates = []StateProfile{
	{"AL", "Alabama", 390, 0.2},
	{"AK", "Alaska", 470, 0},
	{"AZ", "Arizona", 350, 0.5},
	{"AR", "Arkansas", 430, 0},
	{"CA", "California", 230, 48},
	{"CO", "Colorado", 560, 2.5},
	{"CT", "Connecticut", 250, 0},
	{"DE", "Delaware", 480, 0},
	{"FL", "Florida", 420, 0.3},
	{"GA", "Georgia", 380, 0.5},
	{"HI", "Hawaii", 620, 0.1},
	{"ID", "Idaho", 140, 3.5},
	{"IL", "Illinois", 280, 19},
	{"IN", "Indiana", 720, 1.5},
	{"IA", "Iowa", 400, 0.5},
	{"KS", "Kansas", 420, 0},
	{"KY", "Kentucky", 790, 0},
	{"LA", "Louisiana", 430, 0.2},
	{"ME", "Maine", 180, 0},
	{"MD", "Maryland", 330, 1.0},
	{"MA", "Massachusetts", 380, 1.2},
	{"MI", "Michigan", 450, 0.3},
	{"MN", "Minnesota", 390, 0.5},
	{"MS", "Mississippi", 420, 1.0},
	{"MO", "Missouri", 690, 0.8},
	{"MT", "Montana", 430, 0},
	{"NE", "Nebraska", 540, 0.2},
	{"NV", "Nevada", 340, 1.5},
	{"NH", "New Hampshire", 170, 0},
	{"NJ", "New Jersey", 270, 0.5},
	{"NM", "New Mexico", 520, 8},
	{"NY", "New York", 220, 3.5},
	{"NC", "North Carolina", 340, 0.4},
	{"ND", "North Dakota", 650, 0.3},
	{"OH", "Ohio", 560, 1.8},
	{"OK", "Oklahoma", 380, 0.3},
	{"OR", "Oregon", 160, 1.0},
	{"PA", "Pennsylvania", 360, 1.5},
	{"RI", "Rhode Island", 410, 0},
	{"SC", "South Carolina", 260, 0.2},
	{"SD", "South Dakota", 240, 0},
	{"TN", "Tennessee", 300, 45},
	{"TX", "Texas", 410, 6},
	{"UT", "Utah", 700, 1.2},
	{"VT", "Vermont", 110, 0},
	{"VA", "Virginia", 320, 1.5},
	{"WA", "Washington", 130, 2.5},
	{"WV", "West Virginia", 870, 0.5},
	{"WI", "Wisconsin", 550, 0.3},
	{"WY", "Wyoming", 840, 9},
}

// USStates returns the per-state Fig. 1 dataset, sorted by postal code.
func USStates() []StateProfile {
	out := append([]StateProfile(nil), usStates...)
	sort.Slice(out, func(i, j int) bool { return out[i].Code < out[j].Code })
	return out
}

// TotalHPCPowerMW sums the TOP500 HPC power over all states (Fig. 1c
// aggregate).
func TotalHPCPowerMW() float64 {
	total := 0.0
	for _, s := range usStates {
		total += s.HPCPowerMW
	}
	return total
}
