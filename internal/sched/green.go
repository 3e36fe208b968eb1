package sched

import (
	"fmt"
	"math"

	"thirstyflops/internal/jobs"
	"thirstyflops/internal/units"
)

// PowerSeries converts a set of placements into an hourly IT power
// series over the given horizon: each running job contributes its
// per-node power times width for the hours it overlaps.
func PowerSeries(placements []Placement, hours int) []units.Watts {
	out := make([]units.Watts, hours)
	for _, p := range placements {
		watts := float64(p.Job.PowerPerNode) * float64(p.Job.Nodes)
		first := int(math.Floor(p.Start))
		last := int(math.Ceil(p.End))
		for h := first; h < last && h < hours; h++ {
			if h < 0 {
				continue
			}
			// Overlap of [p.Start, p.End] with hour [h, h+1).
			lo := math.Max(p.Start, float64(h))
			hi := math.Min(p.End, float64(h+1))
			if hi > lo {
				out[h] += units.Watts(watts * (hi - lo))
			}
		}
	}
	return out
}

// ScheduleFootprint charges a schedule's power series against hourly
// water- and carbon-intensity curves.
type ScheduleFootprint struct {
	Energy units.KWh
	Water  units.Liters
	Carbon units.GramsCO2
}

// FootprintOf evaluates the environmental cost of a schedule. The
// intensity series must cover the schedule's makespan.
func FootprintOf(placements []Placement, wi []units.LPerKWh, ci []units.GCO2PerKWh) (ScheduleFootprint, error) {
	if len(wi) != len(ci) {
		return ScheduleFootprint{}, fmt.Errorf("sched: intensity series lengths differ")
	}
	series := PowerSeries(placements, len(wi))
	var f ScheduleFootprint
	for h, w := range series {
		e := w.EnergyOver(1)
		f.Energy += e
		f.Water += units.Liters(float64(e) * float64(wi[h]))
		f.Carbon += units.GramsCO2(float64(e) * float64(ci[h]))
	}
	for _, p := range placements {
		if p.End > float64(len(wi)) {
			return ScheduleFootprint{}, fmt.Errorf("sched: schedule extends past the intensity horizon (%v > %d)", p.End, len(wi))
		}
	}
	return f, nil
}

// SlackShiftBackfill is a water-aware scheduler (the paper's Takeaway 9:
// co-optimizing schedulers must be built at the system level). Each job
// tolerates up to slackHours of voluntary delay; before scheduling, its
// release time is moved to the cheapest window (by mean water intensity
// over its runtime) within the slack, then EASY backfilling runs on the
// shaped trace. Deadlines are respected in exchange for cleaner hours.
func SlackShiftBackfill(trace []jobs.Job, nodes int, wi []units.LPerKWh, slackHours float64) (Result, error) {
	if slackHours < 0 {
		return Result{}, fmt.Errorf("sched: negative slack")
	}
	if len(wi) == 0 {
		return Result{}, fmt.Errorf("sched: no intensity series")
	}
	shaped := make([]jobs.Job, len(trace))
	copy(shaped, trace)
	for i, j := range shaped {
		shaped[i].SubmitHour = bestReleaseHour(j, wi, slackHours)
	}
	return EASYBackfill(shaped, nodes)
}

// bestReleaseHour finds the start hour within [submit, submit+slack]
// minimizing the mean water intensity over the job's runtime.
func bestReleaseHour(j jobs.Job, wi []units.LPerKWh, slackHours float64) float64 {
	horizon := float64(len(wi))
	best := j.SubmitHour
	bestCost := math.Inf(1)
	for delay := 0.0; delay <= slackHours; delay++ {
		start := j.SubmitHour + delay
		if start+j.Hours > horizon {
			break
		}
		cost := 0.0
		first := int(start)
		last := int(math.Ceil(start + j.Hours))
		n := 0
		for h := first; h < last && h < len(wi); h++ {
			cost += float64(wi[h])
			n++
		}
		if n == 0 {
			continue
		}
		cost /= float64(n)
		if cost < bestCost {
			best, bestCost = start, cost
		}
	}
	return best
}

// GreenComparison contrasts a plain schedule with its water-aware
// counterpart on the same trace and intensity curves.
type GreenComparison struct {
	Plain      ScheduleFootprint
	Green      ScheduleFootprint
	PlainWait  float64
	GreenWait  float64
	WaterSaved float64 // percent
}

// CompareGreen runs EASY and SlackShiftBackfill on one trace and prices
// both schedules.
func CompareGreen(trace []jobs.Job, nodes int, wi []units.LPerKWh, ci []units.GCO2PerKWh, slackHours float64) (GreenComparison, error) {
	plain, err := EASYBackfill(trace, nodes)
	if err != nil {
		return GreenComparison{}, err
	}
	green, err := SlackShiftBackfill(trace, nodes, wi, slackHours)
	if err != nil {
		return GreenComparison{}, err
	}
	pf, err := FootprintOf(plain.Placements, wi, ci)
	if err != nil {
		return GreenComparison{}, err
	}
	gf, err := FootprintOf(green.Placements, wi, ci)
	if err != nil {
		return GreenComparison{}, err
	}
	cmp := GreenComparison{
		Plain: pf, Green: gf,
		PlainWait: plain.MeanWait, GreenWait: green.MeanWait,
	}
	if pf.Water > 0 {
		cmp.WaterSaved = 100 * (float64(pf.Water) - float64(gf.Water)) / float64(pf.Water)
	}
	return cmp, nil
}
