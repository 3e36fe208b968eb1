// Package configio loads ThirstyFLOPS assessments from JSON documents, so
// operators can describe their own machine, site, and grid without
// writing Go. Processors and grids can reference the built-in catalog by
// name or be specified inline; anything omitted falls back to the Table 2
// defaults.
package configio

import (
	"encoding/json"
	"fmt"
	"io"

	"thirstyflops/internal/core"
	"thirstyflops/internal/embodied"
	"thirstyflops/internal/energy"
	"thirstyflops/internal/hardware"
	"thirstyflops/internal/jobs"
	"thirstyflops/internal/units"
	"thirstyflops/internal/weather"
	"thirstyflops/internal/wsi"
	"thirstyflops/internal/wue"
)

// Document is the JSON shape of a custom assessment.
type Document struct {
	System   SystemDoc  `json:"system"`
	Site     *SiteDoc   `json:"site,omitempty"`      // nil: resolve by name
	SiteName string     `json:"site_name,omitempty"` // one of the bundled sites
	Region   string     `json:"region"`              // bundled region name
	WSI      *float64   `json:"wsi,omitempty"`       // direct scarcity factor
	Demand   *DemandDoc `json:"demand,omitempty"`
	Seed     uint64     `json:"seed,omitempty"`
	Yield    *float64   `json:"yield,omitempty"`
	FabEWF   *float64   `json:"fab_ewf_l_per_kwh,omitempty"`
}

// SystemDoc describes the machine.
type SystemDoc struct {
	Name          string        `json:"name"`
	Nodes         int           `json:"nodes"`
	CPU           ProcessorDoc  `json:"cpu"`
	CPUsPerNode   int           `json:"cpus_per_node"`
	GPU           *ProcessorDoc `json:"gpu,omitempty"`
	GPUsPerNode   int           `json:"gpus_per_node,omitempty"`
	DRAMGBPerNode float64       `json:"dram_gb_per_node"`
	NodeOverheadW float64       `json:"node_overhead_w,omitempty"`
	Storage       []StorageDoc  `json:"storage,omitempty"`
	PeakPowerMW   float64       `json:"peak_power_mw"`
	RmaxPFLOPS    float64       `json:"rmax_pflops,omitempty"`
	IdleFraction  float64       `json:"idle_fraction,omitempty"`
	PUE           float64       `json:"pue"`
	StartYear     int           `json:"start_year,omitempty"`
}

// ProcessorDoc names a catalog processor or defines one inline.
type ProcessorDoc struct {
	Catalog string   `json:"catalog,omitempty"` // e.g. "AMD EPYC 7532"
	Name    string   `json:"name,omitempty"`
	Dies    []DieDoc `json:"dies,omitempty"`
	TDPW    float64  `json:"tdp_w,omitempty"`
	HBMGB   float64  `json:"hbm_gb,omitempty"`
	ICCount int      `json:"ic_count,omitempty"`
	Kind    string   `json:"kind,omitempty"` // "cpu" or "gpu"
}

// DieDoc is one die of an inline processor.
type DieDoc struct {
	AreaMM2 float64 `json:"area_mm2"`
	NodeNM  float64 `json:"node_nm"`
	Count   int     `json:"count"`
}

// StorageDoc is one storage pool.
type StorageDoc struct {
	Name       string  `json:"name"`
	Kind       string  `json:"kind"` // "hdd" or "ssd"
	CapacityPB float64 `json:"capacity_pb"`
}

// SiteDoc is an inline climatology.
type SiteDoc struct {
	Name          string  `json:"name"`
	Country       string  `json:"country,omitempty"`
	MeanTempC     float64 `json:"mean_temp_c"`
	SeasonalAmpC  float64 `json:"seasonal_amp_c"`
	DiurnalAmpC   float64 `json:"diurnal_amp_c"`
	MeanRH        float64 `json:"mean_rh"`
	SeasonalRHAmp float64 `json:"seasonal_rh_amp,omitempty"`
	WarmestDay    float64 `json:"warmest_day,omitempty"`
	NoiseStdC     float64 `json:"noise_std_c,omitempty"`
}

// DemandDoc overrides the utilization model.
type DemandDoc struct {
	Mean        float64 `json:"mean"`
	DailySwing  float64 `json:"daily_swing,omitempty"`
	WeeklySwing float64 `json:"weekly_swing,omitempty"`
	CycleSwing  float64 `json:"cycle_swing,omitempty"`
	NoiseStd    float64 `json:"noise_std,omitempty"`
}

// catalogProcessors indexes the built-in packages by name.
func catalogProcessors() map[string]hardware.Processor {
	out := map[string]hardware.Processor{}
	for _, p := range []hardware.Processor{
		hardware.Power9, hardware.V100, hardware.A64FX,
		hardware.EPYC7532, hardware.A100, hardware.EPYC7A53, hardware.MI250X,
	} {
		out[p.Name] = p
	}
	return out
}

// Decode parses one JSON document strictly: an unknown field is an
// error. Build turns the result into a validated core.Config.
func Decode(r io.Reader) (Document, error) {
	var doc Document
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return Document{}, fmt.Errorf("configio: %w", err)
	}
	return doc, nil
}

// Build assembles a validated core.Config from a parsed document.
func Build(doc Document) (core.Config, error) {
	sys, err := buildSystem(doc.System)
	if err != nil {
		return core.Config{}, err
	}

	site, err := resolveSite(doc, sys)
	if err != nil {
		return core.Config{}, err
	}
	sys.SiteName = site.Name

	region, ok := energy.Regions()[doc.Region]
	if !ok {
		for _, r := range []energy.Region{energy.PacificNorthwest(), energy.Texas(), energy.Arizona()} {
			if r.Name == doc.Region {
				region, ok = r, true
				break
			}
		}
	}
	if !ok {
		return core.Config{}, fmt.Errorf("configio: unknown region %q", doc.Region)
	}
	sys.Region = region.Name

	scarcity := wsi.Profile{Direct: 0.3}
	if doc.WSI != nil {
		scarcity.Direct = units.WSI(*doc.WSI)
	} else if w, err := wsi.SiteWSI(site.Name); err == nil {
		scarcity.Direct = w
	}

	demand := jobs.DefaultDemand()
	if doc.Demand != nil {
		demand.Mean = doc.Demand.Mean
		if doc.Demand.DailySwing > 0 {
			demand.DailySwing = doc.Demand.DailySwing
		}
		if doc.Demand.WeeklySwing > 0 {
			demand.WeeklySwing = doc.Demand.WeeklySwing
		}
		if doc.Demand.CycleSwing > 0 {
			demand.CycleSwing = doc.Demand.CycleSwing
		}
		if doc.Demand.NoiseStd > 0 {
			demand.NoiseStd = doc.Demand.NoiseStd
		}
	}

	emb := embodied.DefaultParams()
	if doc.Yield != nil {
		emb.Yield = *doc.Yield
	}
	if doc.FabEWF != nil {
		emb.FabEWF = units.LPerKWh(*doc.FabEWF)
	}

	seed := doc.Seed
	if seed == 0 {
		seed = 42
	}

	cfg := core.Config{
		System:   sys,
		Site:     site,
		Region:   region,
		Curve:    wue.DefaultCurve(),
		Demand:   demand,
		Embodied: emb,
		Scarcity: scarcity,
		Seed:     seed,
		Year:     2023,
	}
	if err := cfg.Validate(); err != nil {
		return core.Config{}, fmt.Errorf("configio: %w", err)
	}
	return cfg, nil
}

func resolveSite(doc Document, sys hardware.System) (weather.Site, error) {
	switch {
	case doc.Site != nil:
		s := weather.Site{
			Name:          doc.Site.Name,
			Country:       doc.Site.Country,
			MeanTemp:      units.Celsius(doc.Site.MeanTempC),
			SeasonalAmp:   units.Celsius(doc.Site.SeasonalAmpC),
			DiurnalAmp:    units.Celsius(doc.Site.DiurnalAmpC),
			MeanRH:        units.RelativeHumidity(doc.Site.MeanRH),
			SeasonalRHAmp: doc.Site.SeasonalRHAmp,
			WarmestDay:    doc.Site.WarmestDay,
			NoiseStd:      doc.Site.NoiseStdC,
		}
		if s.WarmestDay == 0 {
			s.WarmestDay = 200
		}
		if s.NoiseStd == 0 {
			s.NoiseStd = 1.8
		}
		return s, nil
	case doc.SiteName != "":
		s, ok := weather.Sites()[doc.SiteName]
		if !ok {
			return weather.Site{}, fmt.Errorf("configio: unknown site %q", doc.SiteName)
		}
		return s, nil
	default:
		return weather.Site{}, fmt.Errorf("configio: no site given (site or site_name)")
	}
}

func buildSystem(d SystemDoc) (hardware.System, error) {
	if d.Name == "" {
		return hardware.System{}, fmt.Errorf("configio: system has no name")
	}
	cpu, err := buildProcessor(d.CPU, hardware.CPU)
	if err != nil {
		return hardware.System{}, fmt.Errorf("configio: cpu: %w", err)
	}
	node := hardware.Node{
		CPUs: max(1, d.CPUsPerNode), CPU: cpu,
		DRAMGB:    units.GB(d.DRAMGBPerNode),
		OverheadW: units.Watts(d.NodeOverheadW),
	}
	if d.GPU != nil {
		gpu, err := buildProcessor(*d.GPU, hardware.GPU)
		if err != nil {
			return hardware.System{}, fmt.Errorf("configio: gpu: %w", err)
		}
		node.GPU = gpu
		node.GPUs = max(1, d.GPUsPerNode)
	}
	var pools []hardware.StoragePool
	for _, s := range d.Storage {
		kind := hardware.HDD
		switch s.Kind {
		case "hdd":
		case "ssd":
			kind = hardware.SSD
		default:
			return hardware.System{}, fmt.Errorf("configio: storage kind %q (want hdd or ssd)", s.Kind)
		}
		pools = append(pools, hardware.StoragePool{
			Name: s.Name, Kind: kind, Capacity: units.PBytes(s.CapacityPB),
		})
	}
	idle := d.IdleFraction
	if idle == 0 {
		idle = 0.3
	}
	sys := hardware.System{
		Name: d.Name, Operator: "custom", StartYear: d.StartYear,
		Nodes: d.Nodes, Node: node, Storage: pools,
		PeakPower:    units.MW(d.PeakPowerMW),
		RmaxPFLOPS:   d.RmaxPFLOPS,
		IdleFraction: idle,
		PUE:          units.PUE(d.PUE),
	}
	return sys, sys.Validate()
}

func buildProcessor(d ProcessorDoc, kind hardware.ProcessorKind) (hardware.Processor, error) {
	if d.Catalog != "" {
		p, ok := catalogProcessors()[d.Catalog]
		if !ok {
			return hardware.Processor{}, fmt.Errorf("unknown catalog processor %q", d.Catalog)
		}
		return p.Clone(), nil
	}
	p := hardware.Processor{
		Name: d.Name, Kind: kind,
		TDP:     units.Watts(d.TDPW),
		HBMGB:   units.GB(d.HBMGB),
		ICCount: d.ICCount,
	}
	if d.Kind == "gpu" {
		p.Kind = hardware.GPU
	}
	if p.ICCount == 0 {
		p.ICCount = 9
	}
	for _, die := range d.Dies {
		p.Dies = append(p.Dies, hardware.Die{
			Area:  units.SquareMM(die.AreaMM2),
			Node:  units.Nanometers(die.NodeNM),
			Count: die.Count,
		})
	}
	return p, p.Validate()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
