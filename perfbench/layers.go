package main

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"time"

	"thirstyflops"
	"thirstyflops/internal/core"
	"thirstyflops/internal/embodied"
	"thirstyflops/internal/plan"
	"thirstyflops/internal/telemetry"
	"thirstyflops/internal/units"
	"thirstyflops/internal/weather"
	"thirstyflops/internal/wire"
)

// layerMetrics maps each per-layer time metric to the span it reports:
// the median self time of the span, or its median duration when full is
// set (a span whose children are part of the layer's definition).
var layerMetrics = []struct {
	metric, unit, span string
	scale              float64 // ns per unit
	full               bool
}{
	{"energy.grid_year_ms", "ms", "energy.Region.HourlyYear", 1e6, false},
	{"weather.year_ms", "ms", "weather.year", 1e6, false},
	{"wue.series_ms", "ms", "wue.Curve.Series", 1e6, false},
	{"jobs.util_year_ms", "ms", "jobs.DemandModel.UtilizationYear", 1e6, false},
	{"plan.build_ms", "ms", "plan.Build", 1e6, false},
	{"core.config_for_us", "us", "core.ConfigFor", 1e3, false},
	{"core.combine_ms", "ms", "core.Config.AssessTraced", 1e6, false},
	{"core.derived_us", "us", "core.derived", 1e3, false},
	{"fingerprint.config_us", "us", "core.Config.Fingerprint", 1e3, false},
	{"telemetry.ingest_us", "us", "telemetry.Stream.Ingest", 1e3, false},
	{"telemetry.splice_us", "us", "telemetry.splice", 1e3, true},
	{"series.totals_us", "us", "core.AnnualFrom", 1e3, false},
	{"wire.encode_us", "us", "wire.EncodeResult", 1e3, false},
	{"json.encode_us", "us", "json.Encode", 1e3, false},
}

// resolve materializes a request's configuration the way the Engine
// does for a bundled system.
func resolve(req thirstyflops.AssessRequest) (core.Config, error) {
	cfg, err := core.ConfigFor(req.System)
	if err != nil {
		return core.Config{}, err
	}
	if req.Seed != nil {
		cfg.Seed = *req.Seed
	}
	if req.Year != nil {
		cfg.Year = *req.Year
	}
	return cfg, nil
}

// derive computes the sections the Engine derives from an assessed year
// on every request, hit or miss: embodied breakdown, lifetime, water
// intensities, embodied shares and the optional scenario and withdrawal
// sections. Its inputs were assessed successfully already, so errors
// cannot occur and are not reported.
func derive(cfg core.Config, a core.Annual, req thirstyflops.AssessRequest) {
	years := req.Years
	if years == 0 {
		years = thirstyflops.DefaultLifetimeYears
	}
	bd, _ := cfg.EmbodiedBreakdown()
	f, _ := cfg.LifetimeFromBreakdown(a, bd, years)
	_, _, wi := a.WaterIntensity()
	shares := map[string]float64{}
	for _, c := range embodied.Components() {
		shares[c.String()] = bd.Share(c)
	}
	out := []any{f, wi, a.AdjustedWaterIntensity(cfg.Scarcity), shares}
	if req.Scenarios {
		rs, _ := cfg.ScenarioSweepFrom(a)
		out = append(out, rs)
	}
	if req.Withdrawal {
		w, _ := core.ComputeWithdrawal(a.Operational(), core.DefaultWithdrawalParams(units.Liters(float64(a.Direct)/3)))
		out = append(out, w)
	}
	runtime.KeepAlive(out)
}

// replayAssess re-runs beside one Engine.Assess of req the layer
// functions that call ran inside the program: resolving the config,
// fingerprinting it, combining the year when the memo missed (a is nil
// then) and deriving the result's sections. It returns the year it
// derived from and the wall time spent, for the caller's replay account.
func replayAssess(tr *tracer, op int64, parent int32, req thirstyflops.AssessRequest, a *core.Annual) (*core.Annual, time.Duration) {
	var cfg core.Config
	d := tr.do("core.ConfigFor", op, parent, kindReplay, func() { cfg, _ = resolve(req) })
	d += tr.do("core.Config.Fingerprint", op, parent, kindReplay, func() { runtime.KeepAlive(cfg.Fingerprint()) })
	if a == nil {
		a = new(core.Annual)
		d += tr.do("core.Config.AssessTraced", op, parent, kindReplay, func() { *a, _, _ = cfg.AssessTraced() })
	}
	d += tr.do("core.derived", op, parent, kindReplay, func() { derive(cfg, *a, req) })
	return a, d
}

// replayGenerators runs the substrate generators for cfg's identity
// directly, bypassing the substrate layer: the grid, weather and WUE
// years, and the demand year when demand is set (systems share it).
func replayGenerators(tr *tracer, op int64, parent int32, cfg core.Config, demand bool) time.Duration {
	d := tr.do("energy.Region.HourlyYear", op, parent, kindReplay, func() { runtime.KeepAlive(cfg.Region.HourlyYear(cfg.Seed)) })
	var wb []units.Celsius
	d += tr.do("weather.year", op, parent, kindReplay, func() { wb = weather.WetBulbSeries(cfg.Site.HourlyYear(cfg.Seed)) })
	// The WUE year tabulates the curve over the site's wet-bulb year;
	// only the curve evaluation is the wue layer's own cost.
	d += tr.do("wue.Curve.Series", op, parent, kindReplay, func() { runtime.KeepAlive(cfg.Curve.Series(wb)) })
	if demand {
		d += tr.do("jobs.DemandModel.UtilizationYear", op, parent, kindReplay, func() { runtime.KeepAlive(cfg.Demand.UtilizationYear(cfg.Seed)) })
	}
	return d
}

// planItems fingerprints the substrate identity of each config, as
// AssessBatch does before handing its units to the planner.
func planItems(cfgs []core.Config) []plan.Item {
	items := make([]plan.Item, len(cfgs))
	for i, c := range cfgs {
		ks := c.SubstrateKeys()
		items[i] = plan.Item{Index: i, Substrate: ks.Combined(), Cluster: ks.Cluster()}
	}
	return items
}

// planBuild schedules cfgs the way the gang scheduler does for one
// merged round on the Engine's worker pool.
func planBuild(cfgs []core.Config) plan.Plan {
	return plan.Build(planItems(cfgs), runtime.GOMAXPROCS(0))
}

// encodeWire and encodeJSON produce a response body the way the daemon
// does for each negotiated content type: a pooled wire encoder, or a
// compact JSON encoder over the response writer.
func encodeWire(res *thirstyflops.AssessResult) int {
	enc := wire.GetEncoder()
	n := len(enc.EncodeResult(res))
	wire.PutEncoder(enc)
	return n
}

func encodeJSON(buf *bytes.Buffer, res *thirstyflops.AssessResult) int {
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(res); err != nil {
		return 0
	}
	return buf.Len()
}

// layerInputs are a workload's inputs to the census.
type layerInputs struct {
	// req is assessed through the Engine, so its memo entry is warm.
	req thirstyflops.AssessRequest
	// set is a working set whose substrate items the planner schedules.
	set []thirstyflops.AssessRequest
	// results are setup-time results; their encoded sizes are the byte
	// counts, fixed by the seed.
	results []*thirstyflops.AssessResult
}

const censusReps = 5

// census calls every layer's public functions on one workload's inputs,
// so each traced run reports every per-layer metric, including those of
// layers the workload's own operations never reach. Census spans carry
// negative op ids and stay out of the root accounting.
func census(tr *tracer, eng *thirstyflops.Engine, in layerInputs) {
	ctx := context.Background()
	cfg, _ := resolve(in.req)
	cfgs := make([]core.Config, len(in.set))
	for i, r := range in.set {
		cfgs[i], _ = resolve(r)
	}
	// Warm the request's memo entry and substrate years: the timed
	// phases and the verification may have evicted them.
	_, _ = eng.Assess(ctx, in.req)
	_, _, _ = cfg.AssessTraced()
	var buf bytes.Buffer
	for k := 0; k < censusReps; k++ {
		op := int64(-1 - k)
		top := tr.begin("op", op, -1, kindOp)
		replayGenerators(tr, op, top, cfg, true)
		var a core.Annual
		tr.do("core.Config.AssessTraced", op, top, kindReplay, func() { a, _, _ = cfg.AssessTraced() })
		replayAssess(tr, op, top, in.req, &a)
		tr.do("plan.Build", op, top, kindReplay, func() { runtime.KeepAlive(planBuild(cfgs)) })

		stream, _ := telemetry.NewStream(cfg.System.Name, 0, daemonLiveWindow)
		for h := 0; h < 24; h++ {
			smp := telemetry.Sample{System: cfg.System.Name, Hour: h, Power: cfg.System.PowerAt(0.5)}
			tr.do("telemetry.Stream.Ingest", op, top, kindReplay, func() { runtime.KeepAlive(stream.Ingest(smp)) })
		}
		splice := tr.begin("telemetry.splice", op, top, kindReplay)
		s := stream.Window().SpliceInto(a.Hourly)
		tr.do("core.AnnualFrom", op, splice, kindReplay, func() { runtime.KeepAlive(core.AnnualFrom(cfg.System.Name, s)) })
		tr.end(splice)

		root := tr.begin("engine.Assess", op, top, kindRoot)
		res, err := eng.Assess(ctx, in.req)
		tr.endHit(root, err == nil && res.Cached)
		if err == nil {
			tr.do("wire.EncodeResult", op, top, kindClient, func() { encodeWire(res) })
			tr.do("json.Encode", op, top, kindClient, func() { encodeJSON(&buf, res) })
		}
		tr.end(top)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	runtime.KeepAlive(cfg.Region.HourlyYear(cfg.Seed))
	runtime.ReadMemStats(&m1)
	tr.gridAllocs = m1.Mallocs - m0.Mallocs

	var frames, bodies int
	for _, r := range in.results {
		frames += encodeWire(r)
		bodies += encodeJSON(&buf, r)
	}
	if n := float64(len(in.results)); n > 0 {
		tr.frameBytes, tr.bodyBytes = float64(frames)/n, float64(bodies)/n
	}
}
