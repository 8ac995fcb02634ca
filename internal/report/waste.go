package report

// WasteRow is one attribution bucket of the spans ledger, flattened
// for tabular rendering. The package deliberately does not import
// internal/spans — callers (experiments, magus-bench) map ledger
// buckets into rows, keeping report dependency-light.
type WasteRow struct {
	// Scope names the bucket: "run", "window 3", a workload phase, or
	// a per-governor cell label.
	Scope string
	// BaselineJ / UsefulJ / WasteJ are the decomposed joules; TotalJ
	// is the independently integrated uncore energy.
	BaselineJ float64
	UsefulJ   float64
	WasteJ    float64
	TotalJ    float64
	// Seconds is the attributed virtual time × sockets.
	Seconds float64
}

// WasteFracPct returns waste as a percentage of total uncore energy.
func (r WasteRow) WasteFracPct() float64 {
	if r.TotalJ <= 0 {
		return 0
	}
	return r.WasteJ / r.TotalJ * 100
}

// WasteTable renders attribution rows as an aligned ASCII table with
// a trailing balance column so imbalances are visible at a glance.
func WasteTable(rows []WasteRow) *Table {
	t := NewTable("scope", "baseline_j", "useful_j", "waste_j", "total_j", "waste_%", "balance_err_j")
	for _, r := range rows {
		t.AddRow(r.Scope, r.BaselineJ, r.UsefulJ, r.WasteJ, r.TotalJ,
			r.WasteFracPct(), r.BaselineJ+r.UsefulJ+r.WasteJ-r.TotalJ)
	}
	return t
}
