// Package jobs synthesizes the machine-load side of the analysis. The
// paper derives energy from published job/power logs; this package
// substitutes (a) a utilization demand model with the daily, weekly, and
// allocation-cycle structure production HPC logs show, and (b) a synthetic
// job-trace generator (Poisson arrivals, log-normal durations, power-law
// widths) for the scheduling experiments.
package jobs

import (
	"fmt"
	"math"
	"sort"

	"thirstyflops/internal/fingerprint"
	"thirstyflops/internal/hardware"
	"thirstyflops/internal/stats"
	"thirstyflops/internal/telemetry"
	"thirstyflops/internal/units"
)

// DemandModel parameterizes the utilization generator. Production systems
// run at high mean utilization with mild diurnal/weekly swings and slow
// allocation-cycle drift.
type DemandModel struct {
	Mean        float64 // annual mean utilization, 0-1
	DailySwing  float64 // day/night amplitude (business-hours submission)
	WeeklySwing float64 // weekday/weekend amplitude
	CycleSwing  float64 // quarterly allocation-cycle amplitude
	NoiseStd    float64 // AR(1) hour-scale noise
	Floor, Cap  float64 // clamp band
}

// DefaultDemand returns a demand model matching production leadership-class
// logs: ~80 % mean utilization, modest structure.
func DefaultDemand() DemandModel {
	return DemandModel{
		Mean: 0.80, DailySwing: 0.05, WeeklySwing: 0.06,
		CycleSwing: 0.05, NoiseStd: 0.05, Floor: 0.30, Cap: 0.98,
	}
}

// Validate checks the model.
func (d DemandModel) Validate() error {
	switch {
	case d.Mean <= 0 || d.Mean > 1:
		return fmt.Errorf("jobs: mean utilization %v outside (0,1]", d.Mean)
	case d.Floor < 0 || d.Cap > 1 || d.Floor >= d.Cap:
		return fmt.Errorf("jobs: clamp band [%v,%v] invalid", d.Floor, d.Cap)
	case d.NoiseStd < 0:
		return fmt.Errorf("jobs: negative noise")
	}
	return nil
}

// Fingerprint writes every field that shapes the utilization year.
func (d DemandModel) Fingerprint(h *fingerprint.Hasher) {
	h.Float(d.Mean)
	h.Float(d.DailySwing)
	h.Float(d.WeeklySwing)
	h.Float(d.CycleSwing)
	h.Float(d.NoiseStd)
	h.Float(d.Floor)
	h.Float(d.Cap)
}

// queueCos is the queue harmonic by hour of day: queues fill during
// working hours and drain overnight, peaking at 16:00.
var queueCos = func() (t [24]float64) {
	for i := range t {
		hourOfDay := float64(i)
		t[i] = math.Cos(2 * math.Pi * (hourOfDay - 16) / 24)
	}
	return t
}()

// cycleSin is the allocation-cycle harmonic by hour of year: demand
// peaks before quarterly deadlines.
var cycleSin = func() (t [stats.HoursPerYear]float64) {
	for h := range t {
		day := float64(h) / 24
		t[h] = math.Sin(2 * math.Pi * day / 91.25)
	}
	return t
}()

// UtilizationYear generates one year of hourly utilization.
func (d DemandModel) UtilizationYear(seed uint64) []float64 {
	rng := stats.NewRNG(seed ^ 0xA5A5A5A5)
	out := make([]float64, stats.HoursPerYear)
	const ar = 0.92
	noise := 0.0
	innov := d.NoiseStd * math.Sqrt(1-ar*ar)
	for h := range out {
		weekday := h / 24 % 7 // day 0 is a Monday

		u := d.Mean
		u += d.DailySwing * queueCos[h%24]
		if weekday >= 5 {
			u -= d.WeeklySwing
		}
		u += d.CycleSwing * cycleSin[h]
		noise = ar*noise + rng.NormMeanStd(0, innov)
		u += noise
		out[h] = stats.Clamp(u, d.Floor, d.Cap)
	}
	return out
}

// PowerLogYear produces a telemetry log for a system under a demand model
// — the synthetic stand-in for the paper's published power logs.
func PowerLogYear(sys hardware.System, d DemandModel, seed uint64, year int) telemetry.PowerLog {
	util := d.UtilizationYear(seed)
	samples := make([]units.Watts, len(util))
	for i, u := range util {
		samples[i] = sys.PowerAt(u)
	}
	return telemetry.PowerLog{System: sys.Name, Year: year, Samples: samples}
}

// --- Job traces for the scheduling experiments ---

// Job is one batch job in a synthetic trace.
type Job struct {
	ID           int
	SubmitHour   float64 // time of submission, hours from trace start
	Nodes        int     // requested width
	Hours        float64 // runtime once started
	PowerPerNode units.Watts
}

// Energy is the IT energy the job consumes while running.
func (j Job) Energy() units.KWh {
	return units.KWh(float64(j.PowerPerNode) / 1e3 * float64(j.Nodes) * j.Hours)
}

// TraceParams parameterizes the job generator.
type TraceParams struct {
	Hours          float64 // trace span
	ArrivalPerHour float64 // Poisson submission rate
	MeanHours      float64 // mean runtime (log-normal)
	SigmaHours     float64 // log-normal sigma of runtime
	MaxNodes       int     // largest request (width is power-law-ish)
	NodePowerW     float64 // mean per-node draw
}

// DefaultTrace returns parameters producing a mixed capability/capacity
// workload on a machine with the given node count.
func DefaultTrace(maxNodes int) TraceParams {
	return TraceParams{
		Hours: 336, ArrivalPerHour: 6, MeanHours: 4, SigmaHours: 1.0,
		MaxNodes: maxNodes, NodePowerW: 1800,
	}
}

// Validate checks the parameters.
func (p TraceParams) Validate() error {
	switch {
	case p.Hours <= 0:
		return fmt.Errorf("jobs: non-positive trace span")
	case p.ArrivalPerHour <= 0:
		return fmt.Errorf("jobs: non-positive arrival rate")
	case p.MeanHours <= 0:
		return fmt.Errorf("jobs: non-positive mean runtime")
	case p.MaxNodes < 1:
		return fmt.Errorf("jobs: max nodes < 1")
	case p.NodePowerW <= 0:
		return fmt.Errorf("jobs: non-positive node power")
	}
	return nil
}

// GenerateTrace synthesizes a job trace: exponential inter-arrivals,
// log-normal runtimes centred on MeanHours, and widths drawn from a
// heavy-tailed distribution so a few capability jobs coexist with many
// small ones — the shape production logs show.
func GenerateTrace(p TraceParams, seed uint64) ([]Job, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed ^ 0x10B5)
	// Log-normal mu so the mean is MeanHours: mean = exp(mu + sigma²/2).
	mu := math.Log(p.MeanHours) - p.SigmaHours*p.SigmaHours/2
	var out []Job
	t := 0.0
	id := 0
	for {
		t += rng.Exp(p.ArrivalPerHour)
		if t >= p.Hours {
			break
		}
		id++
		width := 1 + int(float64(p.MaxNodes-1)*math.Pow(rng.Float64(), 3))
		hours := stats.Clamp(rng.LogNormal(mu, p.SigmaHours), 0.05, 48)
		power := stats.Clamp(rng.NormMeanStd(p.NodePowerW, p.NodePowerW*0.15),
			p.NodePowerW*0.4, p.NodePowerW*1.6)
		out = append(out, Job{
			ID: id, SubmitHour: t, Nodes: width, Hours: hours,
			PowerPerNode: units.Watts(power),
		})
	}
	return out, nil
}

// SortBySubmit orders jobs by submission time (stable on ties by ID).
func SortBySubmit(js []Job) {
	sort.SliceStable(js, func(a, b int) bool {
		if js[a].SubmitHour != js[b].SubmitHour {
			return js[a].SubmitHour < js[b].SubmitHour
		}
		return js[a].ID < js[b].ID
	})
}
