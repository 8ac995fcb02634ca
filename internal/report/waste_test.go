package report

import (
	"strings"
	"testing"
)

func TestWasteTable(t *testing.T) {
	rows := []WasteRow{
		{Scope: "run", BaselineJ: 100, UsefulJ: 250, WasteJ: 50, TotalJ: 400, Seconds: 20},
		{Scope: "phase burst", BaselineJ: 40, UsefulJ: 200, WasteJ: 10, TotalJ: 250, Seconds: 8},
	}
	out := WasteTable(rows).String()
	for _, want := range []string{"scope", "waste_%", "balance_err_j", "run", "phase burst", "12.50", "400.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestWasteRowFrac(t *testing.T) {
	if got := (WasteRow{WasteJ: 25, TotalJ: 100}).WasteFracPct(); got != 25 {
		t.Errorf("WasteFracPct = %v, want 25", got)
	}
	if got := (WasteRow{}).WasteFracPct(); got != 0 {
		t.Errorf("zero-total WasteFracPct = %v, want 0", got)
	}
}
