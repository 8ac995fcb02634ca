package experiments

import (
	"fmt"
	"time"

	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/harness"
	"github.com/spear-repro/magus/internal/report"
	"github.com/spear-repro/magus/internal/spans"
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
// attribution rows. Tracers are single-run objects, so the study runs
// its cells serially — it is a diagnostic surface, not a sweep.
func WasteStudy(system, app string, opt Options) (WasteStudyResult, error) {
	opt, err := opt.normalize()
	if err != nil {
		return WasteStudyResult{}, err
	}
	cfg, err := harness.SystemByName(system)
	if err != nil {
		return WasteStudyResult{}, err
	}
	prog := mustProgram(app)

	type cellSpec struct {
		name    string
		factory harness.GovernorFactory
		window  int
	}
	cells := []cellSpec{
		{"default", defaultFactory0, spans.DefaultWindowTicks},
		{"magus", magusFactoryFor(cfg.Name), magusConfigFor(cfg.Name).Window},
		{"ups", upsFactoryFor(cfg.Name), spans.DefaultWindowTicks},
	}

	out := WasteStudyResult{System: cfg.Name, Workload: prog.Name}
	for _, c := range cells {
		tr := spans.New(c.window)
		res, err := harness.Run(cfg, prog, c.factory(), harness.Options{
			Seed: opt.Seed, Obs: opt.Obs, Spans: tr,
		})
		if err != nil {
			return WasteStudyResult{}, fmt.Errorf("experiments: waste %s/%s/%s: %w",
				cfg.Name, prog.Name, c.name, err)
		}
		l := tr.Ledger()
		// Samples per window ≈ window ticks × tick period in engine
		// steps × sockets; size the balance tolerance from the whole
		// run so it also covers the run-level bucket.
		samples := spans.StepsIn(time.Duration(res.RuntimeS*float64(time.Second)), time.Millisecond) * cfg.Sockets
		cell := WasteCell{
			Governor:  c.name,
			Run:       wasteRow("run", l.Run()),
			Windows:   tr.Count(spans.KindWindow),
			Decisions: tr.Count(spans.KindDecision),
			Balanced:  l.Balanced(spans.BalanceTolUlps(samples)),
			Result:    res,
		}
		for _, p := range l.Phases() {
			cell.Phases = append(cell.Phases, wasteRow("phase "+p.Name, p.Energy))
		}
		out.Cells = append(out.Cells, cell)
	}
	return out, nil
}

// defaultFactory0 adapts defaultFactory to harness.GovernorFactory.
func defaultFactory0() governor.Governor { return defaultFactory() }

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
