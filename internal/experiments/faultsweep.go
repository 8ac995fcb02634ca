package experiments

import (
	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/faults"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/harness"
)

// FaultPoint is one fault plan's outcome on the sweep application.
type FaultPoint struct {
	// Plan is the preset name (or plan name for file-loaded plans).
	Plan string
	// RuntimeS is the measured runtime under the plan, seconds.
	RuntimeS float64
	// Comparison is measured against the clean MAGUS run: under faults
	// the fail-safe direction costs energy savings, not runtime.
	harness.Comparison
	// Injected tallies the device faults actually fired.
	Injected faults.Tally
	// Resilience carries the runtime's sensor-health counters
	// (retries, missed samples, degraded/lost cycles, recoveries).
	Resilience core.Stats
}

// FaultSweepResult sweeps MAGUS on one application across fault plans.
// The clean and vendor-default runtimes anchor the degradation
// contract: with the memory-throughput signal permanently lost, the
// runtime pins the uncore at maximum and must match the vendor default
// to within measurement noise.
type FaultSweepResult struct {
	App string
	// CleanRuntimeS / CleanEnergyJ are the unfaulted MAGUS reference.
	CleanRuntimeS float64
	CleanEnergyJ  float64
	// DefaultRuntimeS is the vendor-default governor's runtime.
	DefaultRuntimeS float64
	Points          []FaultPoint
}

// FaultSweep runs MAGUS on app (Intel+A100) under each named fault
// plan. An empty plans slice sweeps every built-in preset. Plans are
// resolved via faults.Load, so file paths work alongside preset names.
func FaultSweep(app string, plans []string, opt Options) (FaultSweepResult, error) {
	opt, err := opt.normalize()
	if err != nil {
		return FaultSweepResult{}, err
	}
	cfg, err := harness.SystemByName("Intel+A100")
	if err != nil {
		return FaultSweepResult{}, err
	}
	if len(plans) == 0 {
		plans = faults.PresetNames()
	}
	// Resolve every plan before running anything, so a bad plan name
	// fails fast instead of after the clean runs.
	loaded := make([]*faults.Plan, len(plans))
	for i, name := range plans {
		if loaded[i], err = faults.Load(name); err != nil {
			return FaultSweepResult{}, err
		}
	}

	// Flat grid of single runs: vendor default, clean MAGUS, then one
	// faulted MAGUS cell per plan. Each faulted cell's factory stores
	// its MAGUS instance in ms so Stats() can be read after the pool
	// joins.
	ms := make([]*core.MAGUS, len(plans))
	specs := []harness.RunSpec{
		spec(cfg, app, policy(cfg.Name, "default"), opt),
		spec(cfg, app, policy(cfg.Name, "magus"), opt),
	}
	for i, plan := range loaded {
		s := spec(cfg, app, func() governor.Governor {
			ms[i] = core.New(magusConfigFor(cfg.Name))
			return ms[i]
		}, opt)
		s.Opt.Faults = plan
		specs = append(specs, s)
	}
	results, err := harness.RunBatch(specs, opt.Jobs)
	if err != nil {
		return FaultSweepResult{}, err
	}
	base, clean, faulted := results[0], results[1], results[2:]
	out := FaultSweepResult{
		App:             app,
		CleanRuntimeS:   clean.RuntimeS,
		CleanEnergyJ:    clean.TotalEnergyJ(),
		DefaultRuntimeS: base.RuntimeS,
	}
	for i, res := range faulted {
		out.Points = append(out.Points, FaultPoint{
			Plan:       plans[i],
			RuntimeS:   res.RuntimeS,
			Comparison: harness.Compare(clean, res),
			Injected:   res.FaultsInjected,
			Resilience: ms[i].Stats(),
		})
	}
	return out, nil
}
