package experiments

import (
	"fmt"

	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/harness"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/stats"
	"github.com/spear-repro/magus/internal/telemetry"
)

// Figure1Result holds the UNet default-governor profiling traces: the
// hardware adjusts core frequency and GPU clock dynamically while the
// uncore stays pinned at its maximum (the paper's motivating
// observation, §2).
type Figure1Result struct {
	// CoreGHz holds four representative core-frequency traces (the
	// paper plots 4 of the 40 cores for readability).
	CoreGHz []*telemetry.Series
	// GPUClockMHz is the GPU SM clock trace.
	GPUClockMHz *telemetry.Series
	// UncoreGHz is the uncore frequency trace (flat at max).
	UncoreGHz *telemetry.Series
}

// Figure1 profiles UNet on Intel+A100 under the vendor default.
func Figure1(opt Options) (Figure1Result, error) {
	opt, err := opt.normalize()
	if err != nil {
		return Figure1Result{}, err
	}
	cfg := node.IntelA100()
	runs, err := harness.RunBatch([]harness.RunSpec{traceSpec(cfg, "unet", policy(cfg.Name, "default"), opt)}, opt.Jobs)
	if err != nil {
		return Figure1Result{}, err
	}
	res := runs[0]
	out := Figure1Result{
		GPUClockMHz: res.Traces.Series("gpu0_clock_mhz"),
		UncoreGHz:   res.Traces.Series("uncore_ghz"),
	}
	for c := 0; c < 4; c++ {
		out.CoreGHz = append(out.CoreGHz, res.Traces.Series(fmt.Sprintf("core%d_ghz", c)))
	}
	return out, nil
}

// Figure2Result holds the UNet power profiles at the two uncore
// extremes: pinning the uncore to its minimum cuts CPU package power by
// ≈82 W but stretches runtime from ≈47 s to ≈57 s (§2).
type Figure2Result struct {
	MaxUncore harness.Result
	MinUncore harness.Result
	// CPUPowerMax/Min are the package+DRAM power traces of both runs.
	CPUPowerMax *telemetry.Series
	CPUPowerMin *telemetry.Series
	// PkgPowerDropW is the average package-power reduction; RuntimeIncreasePct
	// the runtime stretch.
	PkgPowerDropW      float64
	RuntimeIncreasePct float64
}

// Figure2 runs UNet on Intel+A100 pinned at the maximum and minimum
// uncore frequencies.
func Figure2(opt Options) (Figure2Result, error) {
	opt, err := opt.normalize()
	if err != nil {
		return Figure2Result{}, err
	}
	cfg := node.IntelA100()
	res, err := harness.RunBatch([]harness.RunSpec{
		traceSpec(cfg, "unet", func() governor.Governor { return governor.NewStatic(cfg.UncoreMaxGHz) }, opt),
		traceSpec(cfg, "unet", func() governor.Governor { return governor.NewStatic(cfg.UncoreMinGHz) }, opt),
	}, opt.Jobs)
	if err != nil {
		return Figure2Result{}, err
	}
	max, min := res[0], res[1]
	out := Figure2Result{
		MaxUncore:   max,
		MinUncore:   min,
		CPUPowerMax: max.Traces.Series("pkg0_power_w"),
		CPUPowerMin: min.Traces.Series("pkg0_power_w"),
	}
	// Package power across both sockets: avg CPU power minus DRAM.
	maxPkg := max.PkgEnergyJ / max.RuntimeS
	minPkg := min.PkgEnergyJ / min.RuntimeS
	out.PkgPowerDropW = maxPkg - minPkg
	out.RuntimeIncreasePct = (min.RuntimeS - max.RuntimeS) / max.RuntimeS * 100
	return out, nil
}

// Figure5Result holds the SRAD memory-throughput traces (§6.2): the
// top plot compares MAGUS with the static max/min pins, the bottom
// compares MAGUS with UPS.
type Figure5Result struct {
	MaxUncore *telemetry.Series
	MinUncore *telemetry.Series
	MAGUS     *telemetry.Series
	UPS       *telemetry.Series
	// MAGUSvsDefault are the §6.2 headline numbers for MAGUS on SRAD.
	MAGUSvsDefault harness.Comparison
	UPSvsDefault   harness.Comparison
}

// Figure5 traces SRAD memory throughput under four policies on
// Intel+A100.
func Figure5(opt Options) (Figure5Result, error) {
	opt, err := opt.normalize()
	if err != nil {
		return Figure5Result{}, err
	}
	cfg := node.IntelA100()
	res, err := harness.RunBatch([]harness.RunSpec{
		traceSpec(cfg, "srad", policy(cfg.Name, "default"), opt),
		traceSpec(cfg, "srad", func() governor.Governor { return governor.NewStatic(cfg.UncoreMinGHz) }, opt),
		traceSpec(cfg, "srad", policy(cfg.Name, "magus"), opt),
		traceSpec(cfg, "srad", policy(cfg.Name, "ups"), opt),
	}, opt.Jobs)
	if err != nil {
		return Figure5Result{}, err
	}
	base, min, magus, ups := res[0], res[1], res[2], res[3]
	return Figure5Result{
		MaxUncore:      base.Traces.Series("mem_gbs"),
		MinUncore:      min.Traces.Series("mem_gbs"),
		MAGUS:          magus.Traces.Series("mem_gbs"),
		UPS:            ups.Traces.Series("mem_gbs"),
		MAGUSvsDefault: harness.Compare(base, magus),
		UPSvsDefault:   harness.Compare(base, ups),
	}, nil
}

// Figure6Result holds the SRAD uncore-frequency traces: MAGUS pins the
// uncore at max through the high-frequency phases while UPS keeps
// stepping and loses performance (§6.2).
type Figure6Result struct {
	Default *telemetry.Series
	UPS     *telemetry.Series
	MAGUS   *telemetry.Series
	// MAGUSHighFreqOverrides counts decisions suppressed by the
	// high-frequency detector during the MAGUS run.
	MAGUSHighFreqOverrides uint64
}

// Figure6 traces the SRAD uncore frequency under the three policies.
func Figure6(opt Options) (Figure6Result, error) {
	opt, err := opt.normalize()
	if err != nil {
		return Figure6Result{}, err
	}
	cfg := node.IntelA100()
	// The MAGUS factory runs once inside its cell; the pool's barrier
	// (all workers joined before RunBatch returns) makes reading m here
	// race-free.
	var m *core.MAGUS
	res, err := harness.RunBatch([]harness.RunSpec{
		traceSpec(cfg, "srad", policy(cfg.Name, "default"), opt),
		traceSpec(cfg, "srad", policy(cfg.Name, "ups"), opt),
		traceSpec(cfg, "srad", func() governor.Governor {
			m = core.New(magusConfigFor(cfg.Name))
			return m
		}, opt),
	}, opt.Jobs)
	if err != nil {
		return Figure6Result{}, err
	}
	base, ups, magus := res[0], res[1], res[2]
	return Figure6Result{
		Default:                base.Traces.Series("uncore_ghz"),
		UPS:                    ups.Traces.Series("uncore_ghz"),
		MAGUS:                  magus.Traces.Series("uncore_ghz"),
		MAGUSHighFreqOverrides: m.Stats().Overrides,
	}, nil
}

// ThresholdPoint is one configuration of the Figure 7 sweep.
type ThresholdPoint struct {
	IncGBs, DecGBs, HighFreq float64
	RuntimeS                 float64
	EnergyJ                  float64
	OnFrontier               bool
}

// Figure7Result is the sensitivity sweep for one application.
type Figure7Result struct {
	App    string
	Points []ThresholdPoint
	// Default is the index into Points of the recommended default
	// threshold set, which the paper circles on the frontier.
	Default int
}

// figure7Grid mirrors the paper's 40-combination sweep: two thresholds
// fixed while the third varies, around the recommended defaults.
func figure7Grid() []core.Config {
	base := core.DefaultConfig()
	var out []core.Config
	add := func(inc, dec, hi float64) {
		c := base
		c.IncThresholdGBs = inc
		c.DecThresholdGBs = dec
		c.HighFreqThreshold = hi
		out = append(out, c)
	}
	incs := []float64{1, 2, 3, 4, 6, 9, 12, 16, 20, 30, 45, 60, 90, 120}
	decs := []float64{2, 4, 8, 15, 25, 40, 60, 90, 120, 180, 240, 320, 400}
	his := []float64{0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	for _, inc := range incs {
		add(inc, base.DecThresholdGBs, base.HighFreqThreshold)
	}
	for _, dec := range decs {
		add(base.IncThresholdGBs, dec, base.HighFreqThreshold)
	}
	for _, hi := range his {
		add(base.IncThresholdGBs, base.DecThresholdGBs, hi)
	}
	return out
}

// Figure7 sweeps MAGUS's three thresholds on one application (the
// paper shows SRAD-like and UNet-like cases) and marks the Pareto
// frontier of (runtime, energy).
func Figure7(app string, opt Options) (Figure7Result, error) {
	opt, err := opt.normalize()
	if err != nil {
		return Figure7Result{}, err
	}
	cfg := node.IntelA100()
	grid := figure7Grid()
	def := core.DefaultConfig()

	out := Figure7Result{App: app, Default: -1}
	pts := make([]stats.Point, 0, len(grid))
	groups := make([]harness.RunSpec, 0, len(grid))
	for _, mc := range grid {
		groups = append(groups, spec(cfg, app, func() governor.Governor { return core.New(mc) }, opt))
	}
	results, err := runGroups(groups, opt.Repeats, opt.Jobs)
	if err != nil {
		return Figure7Result{}, err
	}
	for gi, mc := range grid {
		res := results[gi]
		p := ThresholdPoint{
			IncGBs:   mc.IncThresholdGBs,
			DecGBs:   mc.DecThresholdGBs,
			HighFreq: mc.HighFreqThreshold,
			RuntimeS: res.RuntimeS,
			EnergyJ:  res.TotalEnergyJ(),
		}
		if mc.IncThresholdGBs == def.IncThresholdGBs &&
			mc.DecThresholdGBs == def.DecThresholdGBs &&
			mc.HighFreqThreshold == def.HighFreqThreshold && out.Default < 0 {
			out.Default = len(out.Points)
		}
		out.Points = append(out.Points, p)
		pts = append(pts, stats.Point{X: p.RuntimeS, Y: p.EnergyJ, Label: fmt.Sprintf("%d", len(out.Points)-1)})
	}
	front := stats.ParetoFront(pts)
	onFront := make(map[string]bool, len(front))
	for _, f := range front {
		onFront[f.Label] = true
	}
	for i := range out.Points {
		out.Points[i].OnFrontier = onFront[fmt.Sprintf("%d", i)]
	}
	return out, nil
}

// DefaultDistance returns the normalised distance of the default
// threshold set from the Pareto frontier ("on or close to", §6.4).
func (f Figure7Result) DefaultDistance() float64 {
	if f.Default < 0 || len(f.Points) == 0 {
		return -1
	}
	var front []stats.Point
	var rtMax, enMax float64
	for _, p := range f.Points {
		if p.OnFrontier {
			front = append(front, stats.Point{X: p.RuntimeS, Y: p.EnergyJ})
		}
		if p.RuntimeS > rtMax {
			rtMax = p.RuntimeS
		}
		if p.EnergyJ > enMax {
			enMax = p.EnergyJ
		}
	}
	d := f.Points[f.Default]
	return stats.DistanceToFront(stats.Point{X: d.RuntimeS, Y: d.EnergyJ}, front, rtMax, enMax)
}
