package experiments

import (
	"fmt"

	"github.com/spear-repro/magus/internal/attrib"
	"github.com/spear-repro/magus/internal/harness"
	"github.com/spear-repro/magus/internal/report"
	"github.com/spear-repro/magus/internal/workload"
)

// TenantScenario names one colocation preset of the study.
type TenantScenario struct {
	Name string
	Spec workload.MuxSpec
}

// TenantScenarios returns the study's colocation matrix: the canonical
// contention shapes per-tenant attribution must stay balanced under.
func TenantScenarios() []TenantScenario {
	return []TenantScenario{
		{"noisy-neighbor", workload.NoisyNeighbor()},
		{"fractional-gpu", workload.FractionalGPU()},
		{"burst", workload.BurstColocation()},
	}
}

// TenantCell is one (scenario, governor) colocated run: the measured
// per-tenant energy split plus each tenant's share of the uncore waste
// ledger.
type TenantCell struct {
	Scenario string
	Governor string
	Policy   string

	// Report is the node-energy attribution (package + DRAM + GPU split
	// across tenants); Balanced is its invariant — per-tenant joules sum
	// to the independently integrated total within the report's own
	// sample-scaled ulp tolerance.
	Report   *attrib.Report
	Balanced bool

	// Run is the whole-run uncore waste bucket and Tenants its
	// per-tenant decomposition from the spans ledger; LedgerBalanced is
	// the ledger's own invariant over run and windows.
	Run            report.WasteRow
	Tenants        []report.WasteRow
	LedgerBalanced bool

	// Result carries the run's standard metrics for context.
	Result harness.Result
}

// TenantStudyResult is the co-located attribution study: who pays for
// the joules when workloads share a node — the fleet-accounting
// question a single-application energy metric cannot answer.
type TenantStudyResult struct {
	System string
	Cells  []TenantCell
}

// TenantStudy runs every colocation scenario under the default and
// MAGUS governors with the waste ledger attached. Cells run serially.
func TenantStudy(system string, opt Options) (TenantStudyResult, error) {
	opt, err := opt.normalize()
	if err != nil {
		return TenantStudyResult{}, err
	}
	cfg, err := harness.SystemByName(system)
	if err != nil {
		return TenantStudyResult{}, err
	}

	out := TenantStudyResult{System: cfg.Name}
	for _, sc := range TenantScenarios() {
		for _, gov := range []string{"default", "magus"} {
			mux := sc.Spec
			lr, err := runLedger(cfg, nil, policy(cfg.Name, gov)(), harness.Options{
				Seed: opt.Seed, Obs: opt.Obs, Tenants: &mux,
			})
			if err != nil {
				return TenantStudyResult{}, fmt.Errorf("experiments: tenants %s/%s/%s: %w",
					cfg.Name, sc.Name, gov, err)
			}
			res := lr.res
			if res.Tenants == nil {
				return TenantStudyResult{}, fmt.Errorf("experiments: tenants %s/%s/%s: run returned no attribution report",
					cfg.Name, sc.Name, gov)
			}
			cell := TenantCell{
				Scenario:       sc.Name,
				Governor:       gov,
				Policy:         sc.Spec.Policy.String(),
				Report:         res.Tenants,
				Balanced:       res.Tenants.Balanced(res.Tenants.BalanceTol()),
				Run:            lr.run,
				LedgerBalanced: lr.balanced,
				Result:         res,
			}
			for _, te := range lr.tr.Ledger().Tenants() {
				cell.Tenants = append(cell.Tenants, wasteRow("tenant "+te.Name, te.Energy))
			}
			out.Cells = append(out.Cells, cell)
		}
	}
	return out, nil
}

// Rows flattens the study into waste-table rows: per cell the run
// bucket then its per-tenant buckets, scopes prefixed with
// scenario/governor.
func (r TenantStudyResult) Rows() []report.WasteRow {
	var rows []report.WasteRow
	for _, c := range r.Cells {
		prefix := c.Scenario + " " + c.Governor + " "
		run := c.Run
		run.Scope = prefix + run.Scope
		rows = append(rows, run)
		for _, t := range c.Tenants {
			t.Scope = prefix + t.Scope
			rows = append(rows, t)
		}
	}
	return rows
}

// Table renders the study as the magus-bench -tenants output.
func (r TenantStudyResult) Table() *report.Table {
	return report.WasteTable(r.Rows())
}
