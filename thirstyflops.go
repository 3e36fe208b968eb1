// Package thirstyflops is the public API of the ThirstyFLOPS water
// footprint framework (SC '25): modeling and analysis of the embodied and
// operational water consumption of HPC systems.
//
// The primary entry point is the Engine, a concurrency-safe assessment
// service that memoizes the deterministic per-Config simulation (weather,
// grid, and demand are pure functions of Config, Seed, and Year) and
// answers JSON-serializable requests:
//
//	eng := thirstyflops.NewEngine(thirstyflops.WithWorkers(8))
//	res, err := eng.Assess(ctx, thirstyflops.AssessRequest{System: "Frontier"})
//
// Engine.AssessMany fans a batch out across a worker pool, Engine.Sweep
// compares energy-sourcing scenarios, and Engine.Water500 ranks the
// bundled systems by water per unit of delivered performance. The
// cmd/thirstyflopsd daemon serves the same request/result model over
// HTTP. Hourly data crosses the API as the typed Series timeline, whose
// four channels (IT energy, WUE, EWF, carbon intensity) are aligned by
// construction.
//
// An Engine can also assess against observed rather than simulated
// demand: attach live telemetry Streams (NewStream, NewStreamRegistry,
// WithLiveStreams), feed them via Engine.Ingest or the daemon's POST
// /ingest, and request AssessRequest{Source: SourceLive} — the observed
// window is spliced over the simulated year, the result carries its
// provenance (LiveInfo), and live cache entries are keyed by the stream
// epoch so they never outlive the samples they were computed from.
//
// The remainder of the package re-exports the assembled toolkit:
//
//   - SystemConfig wires one of the paper's four supercomputers (Marconi,
//     Fugaku, Polaris, Frontier) to its climatology, grid region, cooling
//     curve, demand model, and scarcity profile.
//   - Config.Assess simulates a year of operation and returns the hourly
//     Series plus the direct/indirect water and carbon aggregates.
//   - Config.EmbodiedBreakdown evaluates the Eq. 2-5 embodied model.
//   - Config.ScenarioSweep compares energy-sourcing scenarios (100 % coal,
//     100 % nuclear, clean and water-intensive renewables).
//   - RankStartTimes and CoOptimize schedule fixed-energy jobs against
//     hourly water/carbon intensity curves.
//   - NewMiniAMR provides the parallel AMR stencil mini-app used as the
//     reference workload.
//
// Assessments and rankings run through an Engine: construct one and hold
// on to it so its memo is shared across calls. Custom systems,
// sites, and grids can be assembled from the exported types or loaded
// from JSON documents (ConfigDocument); see examples/ for runnable
// walkthroughs.
package thirstyflops

import (
	"io"

	"thirstyflops/internal/configio"
	"thirstyflops/internal/core"
	"thirstyflops/internal/embodied"
	"thirstyflops/internal/energy"
	"thirstyflops/internal/geo"
	"thirstyflops/internal/hardware"
	"thirstyflops/internal/jobs"
	"thirstyflops/internal/miniamr"
	"thirstyflops/internal/sched"
	"thirstyflops/internal/sensitivity"
	"thirstyflops/internal/series"
	"thirstyflops/internal/telemetry"
	"thirstyflops/internal/units"
	"thirstyflops/internal/upgrade"
	"thirstyflops/internal/watercap"
	"thirstyflops/internal/weather"
	"thirstyflops/internal/wsi"
	"thirstyflops/internal/wue"
)

// --- Quantities ---

// Physical quantity types used across the API.
type (
	// Liters is a volume of water.
	Liters = units.Liters
	// KWh is energy in kilowatt-hours.
	KWh = units.KWh
	// Watts is instantaneous electrical power.
	Watts = units.Watts
	// Celsius is a temperature.
	Celsius = units.Celsius
	// GB is a data capacity in gigabytes.
	GB = units.GB
	// GramsCO2 is a CO2-equivalent emission mass.
	GramsCO2 = units.GramsCO2
	// LPerKWh is a water intensity (WUE, EWF, WI).
	LPerKWh = units.LPerKWh
	// GCO2PerKWh is a carbon intensity.
	GCO2PerKWh = units.GCO2PerKWh
	// PUE is a power usage effectiveness ratio.
	PUE = units.PUE
	// WSI is a water scarcity weighting factor.
	WSI = units.WSI
)

// --- Hourly timeline ---

// Series is the typed hourly timeline carrying aligned IT energy, WUE,
// EWF, and carbon-intensity channels plus the facility PUE. It is the
// only form in which hourly data crosses the API.
type Series = series.Series

// SeriesTotals aggregates a Series into the Eq. 1 operational components.
type SeriesTotals = series.Totals

// NewSeries allocates an aligned zeroed timeline.
func NewSeries(pue PUE, n int) (Series, error) { return series.New(pue, n) }

// SeriesFrom assembles a timeline from existing channels, validating
// alignment.
func SeriesFrom(pue PUE, energy []KWh, wue, ewf []LPerKWh, carbon []GCO2PerKWh) (Series, error) {
	return series.From(pue, energy, wue, ewf, carbon)
}

// SeriesFromIntensities assembles an intensity-only timeline (zero energy
// channel) for uses like start-time ranking.
func SeriesFromIntensities(pue PUE, wue, ewf []LPerKWh, carbon []GCO2PerKWh) (Series, error) {
	return series.FromIntensities(pue, wue, ewf, carbon)
}

// --- Core assessment ---

// Core model types.
type (
	// Config wires a system to its site, grid, cooling, demand, and
	// embodied parameters.
	Config = core.Config
	// Annual is one assessed year of operation. Its Hourly intensity
	// channels alias shared substrate state: Clone the series before
	// writing to it.
	Annual = core.Annual
	// Monthly carries per-month aggregates for seasonal analyses.
	Monthly = core.Monthly
	// Footprint is the complete Eq. 1 decomposition over a lifetime.
	Footprint = core.Footprint
	// Parameter is one row of the Table 2 input checklist.
	Parameter = core.Parameter
	// RatioScenario parameterizes an embodied-vs-operational sweep.
	RatioScenario = core.RatioScenario
	// ScenarioResult compares one energy-sourcing scenario to the
	// current mix.
	ScenarioResult = core.ScenarioResult
	// WithdrawalParams carries the Table 3 withdrawal inputs.
	WithdrawalParams = core.WithdrawalParams
	// Withdrawal is the derived withdrawal accounting.
	Withdrawal = core.Withdrawal
)

// ConfigDocument is the JSON document shape describing a custom system,
// site, and grid — the serializable counterpart of Config used by
// AssessRequest and the configio loader.
type ConfigDocument = configio.Document

// BuildConfig assembles a validated Config from a parsed document.
func BuildConfig(doc ConfigDocument) (Config, error) { return configio.Build(doc) }

// SystemConfig returns the full paper configuration for one of the four
// Table 1 systems: "Marconi", "Fugaku", "Polaris", or "Frontier".
func SystemConfig(name string) (Config, error) { return core.ConfigFor(name) }

// AllSystemConfigs returns ready-made configs for the four paper systems.
func AllSystemConfigs() ([]Config, error) { return core.AllConfigs() }

// SystemNames lists the bundled systems in Table 1 order.
func SystemNames() []string {
	systems := hardware.Systems()
	out := make([]string, len(systems))
	for i, s := range systems {
		out[i] = s.Name
	}
	return out
}

// ParameterChecklist returns the Table 2 parameter checklist.
func ParameterChecklist() []Parameter { return core.Table2() }

// ComputeWithdrawal derives gross withdrawal from consumption and the
// Table 3 parameters.
func ComputeWithdrawal(consumption Liters, p WithdrawalParams) (Withdrawal, error) {
	return core.ComputeWithdrawal(consumption, p)
}

// DefaultWithdrawalParams returns a typical datacenter water contract.
func DefaultWithdrawalParams(discharge Liters) WithdrawalParams {
	return core.DefaultWithdrawalParams(discharge)
}

// RatioMap sweeps the scarcity-weighted embodied/operational ratio across
// manufacturing and operational WSI grids (the paper's Fig. 4).
func RatioMap(embodiedWater Liters, annualEnergy KWh, sc RatioScenario, mfgWSIs, opWSIs []float64) ([][]float64, error) {
	return core.RatioMap(embodiedWater, annualEnergy, sc, mfgWSIs, opWSIs)
}

// HighWaterCase and LowWaterCase are the two Fig. 4 operating points.
func HighWaterCase() RatioScenario { return core.HighWaterCase() }

// LowWaterCase is Fig. 4's favorable-weather, water-light-grid case.
func LowWaterCase() RatioScenario { return core.LowWaterCase() }

// --- Hardware ---

// Hardware catalog types.
type (
	// System is a supercomputer definition.
	System = hardware.System
	// Node is one compute node's hardware complement.
	Node = hardware.Node
	// Processor is a CPU or GPU package.
	Processor = hardware.Processor
	// Die is one silicon die within a package.
	Die = hardware.Die
	// StoragePool is a shared filesystem tier.
	StoragePool = hardware.StoragePool
	// EmbodiedBreakdown is the per-component embodied water of a system.
	EmbodiedBreakdown = embodied.Breakdown
	// EmbodiedParams configures the embodied model.
	EmbodiedParams = embodied.Params
)

// Storage kinds for StoragePool definitions.
const (
	HDD = hardware.HDD
	SSD = hardware.SSD
)

// Embodied breakdown components in Fig. 3 legend order.
const (
	CompCPU  = embodied.CompCPU
	CompGPU  = embodied.CompGPU
	CompDRAM = embodied.CompDRAM
	CompHDD  = embodied.CompHDD
	CompSSD  = embodied.CompSSD
)

// SystemByName looks up one of the bundled Table 1 systems.
func SystemByName(name string) (System, error) { return hardware.SystemByName(name) }

// DefaultEmbodiedParams returns the Table 2 default yield and fab EWF.
func DefaultEmbodiedParams() EmbodiedParams { return embodied.DefaultParams() }

// SystemEmbodied evaluates the embodied model for any system definition.
func SystemEmbodied(s System, p EmbodiedParams) (EmbodiedBreakdown, error) {
	return embodied.SystemBreakdown(s, p)
}

// --- Weather and cooling ---

// Weather and cooling types.
type (
	// Site is a datacenter location's climatology.
	Site = weather.Site
	// WeatherSample is one hour of site weather.
	WeatherSample = weather.Sample
	// WUECurve maps wet-bulb temperature to water usage effectiveness.
	WUECurve = wue.Curve
	// CoolingTower is the evaporation/blowdown/drift mass balance.
	CoolingTower = wue.Tower
)

// Sites returns the four paper site climatologies keyed by name.
func Sites() map[string]Site { return weather.Sites() }

// WetBulb computes the Stull (2011) wet-bulb temperature.
func WetBulb(t Celsius, rh float64) Celsius {
	return weather.WetBulb(t, units.RelativeHumidity(rh))
}

// DefaultWUECurve returns the calibrated paper cooling curve.
func DefaultWUECurve() WUECurve { return wue.DefaultCurve() }

// DefaultCoolingTower returns a typical wet cooling tower.
func DefaultCoolingTower() CoolingTower { return wue.DefaultTower() }

// --- Energy grid ---

// Grid model types.
type (
	// EnergySource is a generation technology.
	EnergySource = energy.Source
	// Mix is a generation mix (shares summing to 1).
	Mix = energy.Mix
	// Region is a grid region with availability dynamics.
	Region = energy.Region
	// GridHour is one simulated hour of grid state.
	GridHour = energy.Hour
	// GridShares is one simulated hour's mix as a per-source array.
	GridShares = energy.Shares
	// Scenario identifies a Fig. 14 energy-sourcing scenario.
	Scenario = energy.Scenario
)

// Generation sources.
const (
	Coal       = energy.Coal
	Gas        = energy.Gas
	Oil        = energy.Oil
	Nuclear    = energy.Nuclear
	Hydro      = energy.Hydro
	Wind       = energy.Wind
	Solar      = energy.Solar
	Geothermal = energy.Geothermal
	Biomass    = energy.Biomass
)

// Energy-sourcing scenarios (Fig. 14).
const (
	CurrentMixScenario              = energy.CurrentMixScenario
	Coal100Scenario                 = energy.Coal100Scenario
	Nuclear100Scenario              = energy.Nuclear100Scenario
	CleanRenewableScenario          = energy.CleanRenewableScenario
	WaterIntensiveRenewableScenario = energy.WaterIntensiveRenewableScenario
)

// Regions returns the four paper grid regions keyed by name.
func Regions() map[string]Region { return energy.Regions() }

// CandidateRegions returns additional grids for site-selection studies.
func CandidateRegions() []Region {
	return []Region{energy.PacificNorthwest(), energy.Texas(), energy.Arizona()}
}

// --- Scarcity ---

// Scarcity types.
type (
	// ScarcityProfile weights direct and indirect footprints by basin
	// scarcity.
	ScarcityProfile = wsi.Profile
	// PowerPlant is one electricity supply with its basin WSI.
	PowerPlant = wsi.PowerPlant
)

// SiteScarcity returns the AWARE-global factor of a known site.
func SiteScarcity(site string) (WSI, error) { return wsi.SiteWSI(site) }

// --- Workloads and scheduling ---

// Workload and scheduling types.
type (
	// DemandModel generates utilization series.
	DemandModel = jobs.DemandModel
	// Job is one batch job in a synthetic trace.
	Job = jobs.Job
	// TraceParams parameterizes the job generator.
	TraceParams = jobs.TraceParams
	// PowerLog is an hourly IT power series.
	PowerLog = telemetry.PowerLog
	// Sample is one live observed power reading.
	Sample = telemetry.Sample
	// Stream is a concurrency-safe ring buffer of recently observed
	// hours, the live counterpart of a PowerLog.
	Stream = telemetry.Stream
	// StreamStatus reports a stream's coverage and ingestion lag.
	StreamStatus = telemetry.Status
	// StreamRegistry routes samples and live assessments across one
	// Stream per fleet system.
	StreamRegistry = telemetry.Registry
	// SchedResult summarizes a scheduling simulation.
	SchedResult = sched.Result
	// Placement records where the simulator ran one job.
	Placement = sched.Placement
	// StartOption scores one candidate start time.
	StartOption = sched.StartOption
	// Weights assigns importance to energy/water/carbon.
	Weights = sched.Weights
)

// DefaultDemand returns the production-like utilization model.
func DefaultDemand() DemandModel { return jobs.DefaultDemand() }

// GenerateTrace synthesizes a batch-job trace.
func GenerateTrace(p TraceParams, seed uint64) ([]Job, error) {
	return jobs.GenerateTrace(p, seed)
}

// DefaultTrace returns trace parameters for a machine of the given size.
func DefaultTrace(maxNodes int) TraceParams { return jobs.DefaultTrace(maxNodes) }

// FCFS simulates strict first-come-first-served scheduling.
func FCFS(trace []Job, nodes int) (SchedResult, error) { return sched.FCFS(trace, nodes) }

// EASYBackfill simulates EASY backfilling.
func EASYBackfill(trace []Job, nodes int) (SchedResult, error) {
	return sched.EASYBackfill(trace, nodes)
}

// RankStartTimes scores candidate start hours of a fixed-energy job
// against the intensity channels of an hourly timeline (Fig. 13).
func RankStartTimes(energyPerHour KWh, durationHours int, candidates []int,
	s Series) ([]StartOption, error) {
	return sched.RankStartTimes(energyPerHour, durationHours, candidates, s)
}

// RankingsDisagree reports whether water-best and carbon-best starts
// differ.
func RankingsDisagree(opts []StartOption) bool { return sched.RankingsDisagree(opts) }

// CoOptimize picks the start hour minimizing the weighted normalized
// energy/water/carbon cost (Sec. 6a).
func CoOptimize(candidates []int, energyCost, waterCost, carbonCost []float64, w Weights) (int, error) {
	return sched.CoOptimize(candidates, energyCost, waterCost, carbonCost, w)
}

// PowerLogFor synthesizes a year-long power log for a system under a
// demand model — the stand-in for the paper's published log datasets.
func PowerLogFor(sys System, d DemandModel, seed uint64, year int) PowerLog {
	return jobs.PowerLogYear(sys, d, seed, year)
}

// NewStream builds a live telemetry ring buffer retaining the most
// recent windowHours of observed samples. Attach it to an Engine with
// WithLiveStreams(NewStreamRegistry(stream)), feed it via Engine.Ingest (or the daemon's POST
// /ingest), and assess against it with AssessRequest.Source = SourceLive.
func NewStream(system string, year int, windowHours int) (*Stream, error) {
	return telemetry.NewStream(system, year, windowHours)
}

// NewStreamRegistry builds a per-system stream registry holding streams.
// Register one Stream per fleet system (plus an optional wildcard),
// attach it with WithLiveStreams, and samples plus source="live"
// requests route by system name.
func NewStreamRegistry(streams ...*Stream) *StreamRegistry {
	r := telemetry.NewRegistry()
	for _, s := range streams {
		r.Register(s)
	}
	return r
}

// ErrNoLiveStream reports a sample or live assessment routed to a system
// with no registered stream; the daemon maps it to a 404-style answer.
var ErrNoLiveStream = telemetry.ErrNoStream

// DecodeSamples parses an ingest body (single JSON object, JSON array,
// or NDJSON stream) into live samples; maxSamples <= 0 applies the
// default batch bound.
func DecodeSamples(r io.Reader, maxSamples int) ([]Sample, error) {
	return telemetry.DecodeSamples(r, maxSamples)
}

// --- Water capping (Takeaway 5) and Water500 (Sec. 6b) ---

// Coordination and ranking types.
type (
	// WaterCapPolicy configures the water-budget coordinator.
	WaterCapPolicy = watercap.Policy
	// WaterCapResult aggregates a coordinated run.
	WaterCapResult = watercap.Result
	// Water500Entry is one row of the water-efficiency ranking.
	Water500Entry = core.Water500Entry
)

// DefaultDryMix is the gas/wind/solar dispatch the coordinator can shift
// toward when water is constrained.
func DefaultDryMix() Mix { return watercap.DefaultDryMix() }

// RunWaterCap coordinates a constrained hourly water budget between
// cooling and generation over an assessed hourly timeline.
func RunWaterCap(p WaterCapPolicy, s Series) (WaterCapResult, error) {
	return watercap.Run(p, s)
}

// --- Geo-distributed shifting (Takeaway 7) ---

// Geo-scheduling types.
type (
	// GeoCenter is one HPC site participating in a shifting fleet.
	GeoCenter = geo.Center
	// GeoJob is one deferrable unit of shifted work.
	GeoJob = geo.Job
	// GeoPolicy selects the dispatch objective.
	GeoPolicy = geo.Policy
	// GeoOutcome aggregates a dispatch run.
	GeoOutcome = geo.Outcome
)

// Geo dispatch policies.
const (
	EnergyGreedy  = geo.EnergyGreedy
	CarbonGreedy  = geo.CarbonGreedy
	WaterGreedy   = geo.WaterGreedy
	ScarcityAware = geo.ScarcityAware
	CoOptimized   = geo.CoOptimized
)

// GeoCenterFrom assesses a configured system and wraps it as a fleet
// center with the given headroom fraction of peak power.
func GeoCenterFrom(cfg Config, headroomFraction float64) (GeoCenter, error) {
	return geo.CenterFromConfig(cfg, headroomFraction)
}

// GeoDispatch routes jobs across the fleet under the policy.
func GeoDispatch(centers []GeoCenter, jobsIn []GeoJob, policy GeoPolicy) (GeoOutcome, error) {
	return geo.Dispatch(centers, jobsIn, policy)
}

// GeoCompareAll dispatches the same jobs under every policy.
func GeoCompareAll(centers []GeoCenter, jobsIn []GeoJob) ([]GeoOutcome, error) {
	return geo.CompareAll(centers, jobsIn)
}

// GeoSyntheticJobs builds a deterministic stream of deferrable jobs.
func GeoSyntheticJobs(count, horizon, meanHours int, meanPowerKW float64, seed uint64) []GeoJob {
	return geo.SyntheticJobs(count, horizon, meanHours, meanPowerKW, seed)
}

// --- Upgrade payback (Sec. 6 upgrade cycles) ---

// Upgrade types.
type (
	// UpgradePlan describes replacing a running system with newer
	// technology at the same delivered Rmax.
	UpgradePlan = upgrade.Plan
	// UpgradeAnalysis is the water payback outcome.
	UpgradeAnalysis = upgrade.Analysis
)

// AnalyzeUpgrade evaluates the water payback of a hardware upgrade.
func AnalyzeUpgrade(p UpgradePlan) (UpgradeAnalysis, error) { return upgrade.Analyze(p) }

// --- Sensitivity analysis ---

// Sensitivity types.
type (
	// SensitivityFactor is one swept Table 2 input.
	SensitivityFactor = sensitivity.Factor
	// SensitivityResult is one factor's footprint impact.
	SensitivityResult = sensitivity.Result
)

// SensitivityAnalyze sweeps the Table 2 parameter ranges for a
// configuration; nil factors selects the defaults.
func SensitivityAnalyze(cfg Config, years float64, factors []SensitivityFactor) ([]SensitivityResult, error) {
	return sensitivity.Analyze(cfg, years, factors)
}

// --- miniAMR workload ---

// Mini-app types.
type (
	// MiniAMRConfig parameterizes the AMR stencil mini-app.
	MiniAMRConfig = miniamr.Config
	// MiniAMRStats aggregates one mini-app run.
	MiniAMRStats = miniamr.Stats
	// MiniAMR is the adaptive mesh.
	MiniAMR = miniamr.Mesh
	// MiniAMREnergyModel converts mini-app work into energy.
	MiniAMREnergyModel = miniamr.EnergyModel
)

// DefaultMiniAMRConfig returns a small but non-trivial problem.
func DefaultMiniAMRConfig() MiniAMRConfig { return miniamr.DefaultConfig() }

// NewMiniAMR builds the level-0 mesh for a configuration.
func NewMiniAMR(cfg MiniAMRConfig) (*MiniAMR, error) { return miniamr.New(cfg) }

// DefaultMiniAMREnergyModel returns the calibrated per-cell-update model.
func DefaultMiniAMREnergyModel() MiniAMREnergyModel { return miniamr.DefaultEnergyModel() }
