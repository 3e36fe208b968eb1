package jobs

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"thirstyflops/internal/hardware"
	"thirstyflops/internal/stats"
	"thirstyflops/internal/units"
)

func TestDemandValidate(t *testing.T) {
	if err := DefaultDemand().Validate(); err != nil {
		t.Errorf("default demand invalid: %v", err)
	}
	bad := []DemandModel{
		{Mean: 0, Floor: 0.1, Cap: 0.9},
		{Mean: 0.5, Floor: 0.9, Cap: 0.1},
		{Mean: 0.5, Floor: 0.1, Cap: 0.9, NoiseStd: -1},
		{Mean: 1.5, Floor: 0.1, Cap: 0.9},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d should be invalid", i)
		}
	}
}

func TestUtilizationYearBounds(t *testing.T) {
	d := DefaultDemand()
	u := d.UtilizationYear(1)
	if len(u) != stats.HoursPerYear {
		t.Fatalf("len = %d", len(u))
	}
	for i, v := range u {
		if v < d.Floor-1e-12 || v > d.Cap+1e-12 {
			t.Fatalf("hour %d: utilization %v outside [%v,%v]", i, v, d.Floor, d.Cap)
		}
	}
	mean := stats.Mean(u)
	if math.Abs(mean-d.Mean) > 0.06 {
		t.Errorf("annual mean %v drifted from target %v", mean, d.Mean)
	}
}

func TestUtilizationDeterminismAndSeeds(t *testing.T) {
	d := DefaultDemand()
	a, b := d.UtilizationYear(3), d.UtilizationYear(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed differs")
		}
	}
	c := d.UtilizationYear(4)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds identical")
	}
}

func TestWeekendDip(t *testing.T) {
	d := DefaultDemand()
	u := d.UtilizationYear(2)
	var wd, we, nwd, nwe float64
	for h, v := range u {
		if (h/24)%7 >= 5 {
			we += v
			nwe++
		} else {
			wd += v
			nwd++
		}
	}
	if wd/nwd <= we/nwe {
		t.Error("weekday utilization should exceed weekend")
	}
}

func TestEnergyYear(t *testing.T) {
	// A flat demand model holds every hour at one utilization, so each
	// hour of the year's power log prices the idle-to-peak model there.
	sys := hardware.Polaris()
	var e [3]units.KWh
	for i, u := range []float64{0, 0.5, 1} {
		hourly := PowerLogYear(sys, DemandModel{Mean: u, Floor: u, Cap: u}, 7, 2023).HourlyEnergy()
		if len(hourly) != stats.HoursPerYear {
			t.Fatalf("utilization %v: %d hours", u, len(hourly))
		}
		e[i] = hourly[100]
	}
	if e[0] >= e[1] || e[1] >= e[2] {
		t.Error("energy should increase with utilization")
	}
	// Full utilization for one hour = peak power in kWh.
	want := float64(sys.PeakPower) / 1e3
	if math.Abs(float64(e[2])-want) > 1e-9 {
		t.Errorf("full-hour energy = %v, want %v", e[2], want)
	}
}

func TestPowerLogYear(t *testing.T) {
	sys := hardware.Marconi100()
	log := PowerLogYear(sys, DefaultDemand(), 7, 2022)
	if err := log.Validate(); err != nil {
		t.Fatal(err)
	}
	if log.System != "Marconi" || log.Year != 2022 {
		t.Error("log metadata wrong")
	}
	if len(log.Samples) != stats.HoursPerYear {
		t.Fatalf("samples = %d", len(log.Samples))
	}
	// All samples within the idle..peak envelope.
	idle := float64(sys.PeakPower) * sys.IdleFraction
	for i, s := range log.Samples {
		if float64(s) < idle-1e-6 || float64(s) > float64(sys.PeakPower)+1e-6 {
			t.Fatalf("hour %d: power %v outside envelope", i, s)
		}
	}
}

func TestTraceParamsValidate(t *testing.T) {
	if err := DefaultTrace(100).Validate(); err != nil {
		t.Errorf("default trace invalid: %v", err)
	}
	bad := []TraceParams{
		{Hours: 0, ArrivalPerHour: 1, MeanHours: 1, MaxNodes: 1, NodePowerW: 1},
		{Hours: 1, ArrivalPerHour: 0, MeanHours: 1, MaxNodes: 1, NodePowerW: 1},
		{Hours: 1, ArrivalPerHour: 1, MeanHours: 0, MaxNodes: 1, NodePowerW: 1},
		{Hours: 1, ArrivalPerHour: 1, MeanHours: 1, MaxNodes: 0, NodePowerW: 1},
		{Hours: 1, ArrivalPerHour: 1, MeanHours: 1, MaxNodes: 1, NodePowerW: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d should be invalid", i)
		}
	}
}

func TestGenerateTrace(t *testing.T) {
	p := DefaultTrace(560)
	js, err := GenerateTrace(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(js) == 0 {
		t.Fatal("empty trace")
	}
	// Expect roughly ArrivalPerHour * Hours jobs.
	expected := p.ArrivalPerHour * p.Hours
	if float64(len(js)) < expected*0.8 || float64(len(js)) > expected*1.2 {
		t.Errorf("job count %d far from expected %v", len(js), expected)
	}
	prev := -1.0
	ids := map[int]bool{}
	for _, j := range js {
		if j.SubmitHour < prev {
			t.Fatal("submissions not ordered")
		}
		prev = j.SubmitHour
		if j.SubmitHour < 0 || j.SubmitHour >= p.Hours {
			t.Fatalf("submit %v outside trace span", j.SubmitHour)
		}
		if j.Nodes < 1 || j.Nodes > p.MaxNodes {
			t.Fatalf("width %d outside [1,%d]", j.Nodes, p.MaxNodes)
		}
		if j.Hours <= 0 || j.Hours > 48 {
			t.Fatalf("runtime %v outside (0,48]", j.Hours)
		}
		if j.PowerPerNode <= 0 {
			t.Fatal("non-positive node power")
		}
		if ids[j.ID] {
			t.Fatalf("duplicate job ID %d", j.ID)
		}
		ids[j.ID] = true
	}
	if _, err := GenerateTrace(TraceParams{}, 1); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestTraceWidthsHeavyTailed(t *testing.T) {
	js, _ := GenerateTrace(DefaultTrace(1000), 9)
	widths := make([]float64, len(js))
	for i, j := range js {
		widths[i] = float64(j.Nodes)
	}
	sort.Float64s(widths)
	med := stats.Median(widths)
	max := stats.Max(widths)
	// Most jobs small, a few capability-scale: median far below max.
	if med > max/4 {
		t.Errorf("widths not heavy-tailed: median %v vs max %v", med, max)
	}
}

func TestJobEnergy(t *testing.T) {
	j := Job{Nodes: 10, Hours: 2, PowerPerNode: 1500}
	// 10 nodes * 1.5 kW * 2 h = 30 kWh.
	if got := j.Energy(); math.Abs(float64(got)-30) > 1e-9 {
		t.Errorf("Energy = %v, want 30", got)
	}
	if got := traceEnergy([]Job{j, j}); math.Abs(float64(got)-60) > 1e-9 {
		t.Errorf("trace energy = %v, want 60", got)
	}
}

func TestSortBySubmit(t *testing.T) {
	js := []Job{
		{ID: 2, SubmitHour: 5},
		{ID: 1, SubmitHour: 1},
		{ID: 3, SubmitHour: 5},
	}
	SortBySubmit(js)
	if js[0].ID != 1 || js[1].ID != 2 || js[2].ID != 3 {
		t.Errorf("sort order wrong: %v", js)
	}
}

// Property: trace generation is deterministic per seed.
func TestTraceDeterminismProperty(t *testing.T) {
	f := func(seed uint64) bool {
		p := TraceParams{Hours: 24, ArrivalPerHour: 3, MeanHours: 2, SigmaHours: 0.8, MaxNodes: 64, NodePowerW: 1500}
		a, err1 := GenerateTrace(p, seed)
		b, err2 := GenerateTrace(p, seed)
		if err1 != nil || err2 != nil || len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// traceEnergy sums the IT energy of a trace.
func traceEnergy(js []Job) units.KWh {
	var total units.KWh
	for _, j := range js {
		total += j.Energy()
	}
	return total
}

// Property: trace energy is non-negative and additive over splits.
func TestTraceEnergyAdditiveProperty(t *testing.T) {
	js, _ := GenerateTrace(DefaultTrace(128), 5)
	f := func(cut uint8) bool {
		if len(js) == 0 {
			return true
		}
		k := int(cut) % len(js)
		lhs := float64(traceEnergy(js))
		rhs := float64(traceEnergy(js[:k])) + float64(traceEnergy(js[k:]))
		return lhs >= 0 && math.Abs(lhs-rhs) < 1e-6*math.Max(1, lhs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
