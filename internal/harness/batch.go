package harness

import (
	"context"

	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/parallel"
	"github.com/spear-repro/magus/internal/stats"
	"github.com/spear-repro/magus/internal/workload"
)

// RunSpec is one fully-described experiment cell: a (system, app,
// governor, options) tuple that Run can execute independently of every
// other cell. The Factory is invoked exactly once, inside the cell, so
// governor state never crosses cells; Opt.Seed makes the cell
// deterministic on its own.
type RunSpec struct {
	Cfg     node.Config
	Prog    *workload.Program
	Factory GovernorFactory
	Opt     Options
}

// RunBatch executes every spec on a bounded worker pool (jobs <= 0
// selects GOMAXPROCS) and returns the results in spec order. Because
// each cell builds its own engine, node, runner and governor, results
// are byte-identical to a serial sweep for any jobs value; the first
// cell error cancels remaining cells and is returned.
//
// Pool metrics (magus_pool_*) are registered on the first non-nil
// Opt.Obs registry found in specs.
func RunBatch(specs []RunSpec, jobs int) ([]Result, error) {
	var m *parallel.Metrics
	for _, s := range specs {
		if s.Opt.Obs != nil {
			m = parallel.NewMetrics(s.Opt.Obs.Registry())
			break
		}
	}
	return parallel.Map(context.Background(), len(specs), jobs, m,
		func(_ context.Context, i int) (Result, error) {
			s := specs[i]
			return Run(s.Cfg, s.Prog, s.Factory(), s.Opt)
		})
}

// RepeatSpecs expands one (cfg, prog, factory) cell into reps specs
// carrying the repeat-seed contract the evaluation depends on: repeat i
// runs with Seed = opt.Seed + i*7919 (7919 is the 1000th prime; the
// stride keeps repeat seed sequences of adjacent base seeds disjoint)
// and TraceInterval forced to zero, since traces only make sense for a
// single run.
func RepeatSpecs(cfg node.Config, prog *workload.Program, factory GovernorFactory, reps int, opt Options) []RunSpec {
	if reps < 1 {
		reps = 1
	}
	specs := make([]RunSpec, reps)
	for i := range specs {
		o := opt
		o.Seed = opt.Seed + int64(i)*7919
		o.TraceInterval = 0 // traces only make sense per run
		o.Spans = nil       // tracers are single-run; sharing one across parallel repeats would race
		o.Flight = nil      // flight rings are single-run diagnostics; interleaved repeats would garble the tail
		specs[i] = RunSpec{Cfg: cfg, Prog: prog, Factory: factory, Opt: o}
	}
	return specs
}

// Reduce aggregates repeated-run results into one Result using the
// paper's outlier-trimmed averaging (§6). Identity fields are taken
// from the first result.
func Reduce(results []Result) Result {
	if len(results) == 0 {
		return Result{}
	}
	runtimes := make([]float64, 0, len(results))
	powers := make([]float64, 0, len(results))
	pkgs := make([]float64, 0, len(results))
	drams := make([]float64, 0, len(results))
	gpus := make([]float64, 0, len(results))
	for _, res := range results {
		runtimes = append(runtimes, res.RuntimeS)
		powers = append(powers, res.AvgCPUPowerW)
		pkgs = append(pkgs, res.PkgEnergyJ)
		drams = append(drams, res.DramEnergyJ)
		gpus = append(gpus, res.GPUEnergyJ)
	}
	return Result{
		System:       results[0].System,
		Workload:     results[0].Workload,
		Governor:     results[0].Governor,
		RuntimeS:     stats.TrimmedMean(runtimes),
		AvgCPUPowerW: stats.TrimmedMean(powers),
		PkgEnergyJ:   stats.TrimmedMean(pkgs),
		DramEnergyJ:  stats.TrimmedMean(drams),
		GPUEnergyJ:   stats.TrimmedMean(gpus),
	}
}
