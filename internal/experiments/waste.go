package experiments

import (
	"fmt"
	"time"

	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/harness"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/report"
	"github.com/spear-repro/magus/internal/spans"
	"github.com/spear-repro/magus/internal/workload"
)

// WasteCell is one governor's energy attribution for the study cell.
type WasteCell struct {
	Governor string
	// Run is the whole-run attribution bucket; Phases the per-workload
	// phase decomposition in first-seen order.
	Run    report.WasteRow
	Phases []report.WasteRow
	// Windows and Decisions count the recorded causality spans.
	Windows   int
	Decisions int
	// Balanced reports the ledger invariant (baseline + useful + waste
	// == total uncore joules within the sample-scaled ulp tolerance)
	// for the run and every window.
	Balanced bool
	// Result carries the run's standard metrics for context.
	Result harness.Result
}

// WasteStudyResult is the power-waste attribution comparison the
// paper's argument rests on: how many uncore joules each policy
// wastes on the same workload.
type WasteStudyResult struct {
	System   string
	Workload string
	Cells    []WasteCell
}

// WasteStudy runs one (system, app) cell under each governor with the
// decision-causality tracer attached and reduces the ledgers into
// attribution rows. It is a diagnostic surface, not a sweep: its cells
// run serially.
func WasteStudy(system, app string, opt Options) (WasteStudyResult, error) {
	opt, err := opt.normalize()
	if err != nil {
		return WasteStudyResult{}, err
	}
	cfg, err := harness.SystemByName(system)
	if err != nil {
		return WasteStudyResult{}, err
	}
	prog, err := program(app)
	if err != nil {
		return WasteStudyResult{}, err
	}
	out := WasteStudyResult{System: cfg.Name, Workload: prog.Name}
	for _, gov := range []string{"default", "magus", "ups"} {
		lr, err := runLedger(cfg, prog, policy(cfg.Name, gov)(), harness.Options{Seed: opt.Seed, Obs: opt.Obs})
		if err != nil {
			return WasteStudyResult{}, fmt.Errorf("experiments: waste %s/%s/%s: %w",
				cfg.Name, prog.Name, gov, err)
		}
		cell := WasteCell{
			Governor:  gov,
			Run:       lr.run,
			Windows:   lr.tr.Count(spans.KindWindow),
			Decisions: lr.tr.Count(spans.KindDecision),
			Balanced:  lr.balanced,
			Result:    lr.res,
		}
		for _, p := range lr.tr.Ledger().Phases() {
			cell.Phases = append(cell.Phases, wasteRow("phase "+p.Name, p.Energy))
		}
		out.Cells = append(out.Cells, cell)
	}
	return out, nil
}

// ledgerRun is one finished run with a waste ledger attached: the run,
// its tracer, the whole-run attribution bucket, and the ledger
// invariant (baseline + useful + waste == total uncore joules within
// the sample-scaled ulp tolerance) over the run and every window.
type ledgerRun struct {
	res      harness.Result
	tr       *spans.Tracer
	run      report.WasteRow
	balanced bool
}

// newTracer returns a fresh waste-ledger tracer for a run under gov.
// Its windows follow MAGUS's own decision window, and the spans default
// (DefaultWindowTicks) for every other policy.
func newTracer(gov governor.Governor) *spans.Tracer {
	if m, ok := gov.(*core.MAGUS); ok {
		return spans.New(m.Config().Window)
	}
	return spans.New(spans.DefaultWindowTicks)
}

// runLedger runs one cell under gov with a fresh tracer attached.
// Tracers are single-run objects, so the studies run their cells one
// at a time.
func runLedger(cfg node.Config, prog *workload.Program, gov governor.Governor, opt harness.Options) (ledgerRun, error) {
	opt.Spans = newTracer(gov)
	res, err := harness.Run(cfg, prog, gov, opt)
	if err != nil {
		return ledgerRun{}, err
	}
	return reduceLedger(cfg, res, opt.Spans), nil
}

// reduceLedger reduces a finished run's tracer. Samples per window ≈
// window ticks × tick period in engine steps × sockets; the balance
// tolerance is sized from the whole run so it also covers the
// run-level bucket.
func reduceLedger(cfg node.Config, res harness.Result, tr *spans.Tracer) ledgerRun {
	l := tr.Ledger()
	samples := spans.StepsIn(time.Duration(res.RuntimeS*float64(time.Second)), time.Millisecond) * cfg.Sockets
	return ledgerRun{
		res:      res,
		tr:       tr,
		run:      wasteRow("run", l.Run()),
		balanced: l.Balanced(spans.BalanceTolUlps(samples)),
	}
}

// wasteRow flattens a ledger bucket into a report row.
func wasteRow(scope string, e spans.EnergyAttr) report.WasteRow {
	return report.WasteRow{
		Scope:     scope,
		BaselineJ: e.BaselineJ,
		UsefulJ:   e.UsefulJ,
		WasteJ:    e.WasteJ,
		TotalJ:    e.TotalJ,
		Seconds:   e.Seconds,
	}
}

// Rows flattens the study into table rows: per governor the run bucket
// then its phase buckets, scopes prefixed with the governor name.
func (r WasteStudyResult) Rows() []report.WasteRow {
	var rows []report.WasteRow
	for _, c := range r.Cells {
		run := c.Run
		run.Scope = c.Governor + " " + run.Scope
		rows = append(rows, run)
		for _, p := range c.Phases {
			p.Scope = c.Governor + " " + p.Scope
			rows = append(rows, p)
		}
	}
	return rows
}

// Table renders the study as the magus-bench -waste output.
func (r WasteStudyResult) Table() *report.Table {
	return report.WasteTable(r.Rows())
}
