package magus

import (
	"time"

	"github.com/spear-repro/magus/internal/experiments"
)

// This file exposes the paper-reproduction entry points: one function
// per table/figure of the evaluation (§6). cmd/magus-bench renders
// their results; bench_test.go asserts the paper's claims against them.

// ExperimentOptions tunes reproduction cost (repeats, seed).
type ExperimentOptions = experiments.Options

// QuickExperiments returns single-repeat options for smoke runs.
func QuickExperiments() ExperimentOptions { return experiments.Quick() }

// PaperExperiments returns the paper's methodology: five repeats with
// outlier-trimmed averaging.
func PaperExperiments() ExperimentOptions { return experiments.Paper() }

// Result types, one per experiment.
type (
	Figure1Result = experiments.Figure1Result
	Figure2Result = experiments.Figure2Result
	Figure4Result = experiments.Figure4Result
	Figure5Result = experiments.Figure5Result
	Figure6Result = experiments.Figure6Result
	Figure7Result = experiments.Figure7Result
	Table1Result  = experiments.Table1Result
	Table2Result  = experiments.Table2Result
	AppResult     = experiments.AppResult
)

// ReproduceFigure1 profiles UNet under the vendor default: dynamic
// core/GPU clocks, uncore pinned at max (§2).
func ReproduceFigure1(opt ExperimentOptions) (Figure1Result, error) {
	return experiments.Figure1(opt)
}

// ReproduceFigure2 runs UNet at the two uncore extremes: the ≈82 W /
// ≈21 % power-performance trade-off (§2).
func ReproduceFigure2(opt ExperimentOptions) (Figure2Result, error) {
	return experiments.Figure2(opt)
}

// ReproduceFigure4 regenerates one subplot of the end-to-end
// comparison; system is "Intel+A100", "Intel+Max1550" or
// "Intel+4A100" (§6.1).
func ReproduceFigure4(system string, opt ExperimentOptions) (Figure4Result, error) {
	return experiments.Figure4(system, opt)
}

// ReproduceFigure5 traces SRAD memory throughput under max/min pins,
// MAGUS and UPS (§6.2).
func ReproduceFigure5(opt ExperimentOptions) (Figure5Result, error) {
	return experiments.Figure5(opt)
}

// ReproduceFigure6 traces the SRAD uncore frequency under the three
// policies (§6.2).
func ReproduceFigure6(opt ExperimentOptions) (Figure6Result, error) {
	return experiments.Figure6(opt)
}

// ReproduceFigure7 sweeps MAGUS's thresholds on one application and
// extracts the (runtime, energy) Pareto frontier (§6.4).
func ReproduceFigure7(app string, opt ExperimentOptions) (Figure7Result, error) {
	return experiments.Figure7(app, opt)
}

// ReproduceTable1 computes burst-prediction Jaccard similarity for
// every Table 1 application (§6.3).
func ReproduceTable1(opt ExperimentOptions) (Table1Result, error) {
	return experiments.Table1(opt)
}

// ReproduceTable2 measures idle runtime overheads (power and
// invocation time) for MAGUS and UPS on both single-GPU systems
// (§6.5). idleWindow <= 0 selects the paper's 10 minutes.
func ReproduceTable2(idleWindow time.Duration, opt ExperimentOptions) (Table2Result, error) {
	return experiments.Table2(idleWindow, opt)
}
