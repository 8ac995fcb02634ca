package report

// DistRow is one distribution's quantile summary, flattened for
// tabular rendering. As with WasteRow, the package deliberately does
// not import internal/sketch — callers (experiments, magus-bench) map
// sketch summaries into rows, keeping report dependency-light.
type DistRow struct {
	// Metric names the distribution ("node power W", "uncore ratio", ...).
	Metric string
	// Count is the number of folded samples.
	Count uint64
	// Min, P50, P90, P99, Max are the five-number summary; Mean is the
	// sketch-derived arithmetic mean.
	Min  float64
	P50  float64
	P90  float64
	P99  float64
	Max  float64
	Mean float64
}

// DistTable renders quantile-summary rows as an aligned ASCII table.
func DistTable(rows []DistRow) *Table {
	t := NewTable("metric", "count", "min", "p50", "p90", "p99", "max", "mean")
	for _, r := range rows {
		t.AddRow(r.Metric, r.Count, r.Min, r.P50, r.P90, r.P99, r.Max, r.Mean)
	}
	return t
}
