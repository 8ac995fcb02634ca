package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// docTable returns the rows of the first markdown table under the
// EXPERIMENTS.md heading that starts with heading, each row split into
// its trimmed cells (the header and separator rows dropped).
func docTable(t *testing.T, heading string) [][]string {
	t.Helper()
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	in, inTable := false, false
	for _, line := range strings.Split(string(doc), "\n") {
		switch {
		case strings.HasPrefix(line, "## "):
			in = strings.HasPrefix(line, heading)
		case in && strings.HasPrefix(line, "|"):
			if inTable && !strings.HasPrefix(line, "|---") {
				cells := strings.Split(strings.Trim(line, "|"), "|")
				for i := range cells {
					cells[i] = strings.TrimSpace(cells[i])
				}
				rows = append(rows, cells)
			}
			inTable = true
		case inTable:
			return rows
		}
	}
	if len(rows) == 0 {
		t.Fatalf("EXPERIMENTS.md has no table under %q", heading)
	}
	return rows
}

// readSuite decodes one section of the suite golden.
func readSuite(t *testing.T, name string, v any) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "suite", name))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatal(err)
	}
}

// TestExperimentsDocFigure2 checks EXPERIMENTS.md's Figure 2 table
// against the suite golden at the document's rounding. Figure 2 is two
// single traced runs, so the section does not depend on the repeat
// count the golden was taken at.
func TestExperimentsDocFigure2(t *testing.T) {
	var fig Figure2Result
	readSuite(t, "figure2.json", &fig)
	maxPkgW := fig.MaxUncore.PkgEnergyJ / fig.MaxUncore.RuntimeS
	want := map[string]string{
		"Runtime @ max uncore (2.2 GHz)": fmt.Sprintf("%.1f s", fig.MaxUncore.RuntimeS),
		"Runtime @ min uncore (0.8 GHz)": fmt.Sprintf("%.1f s (+%.1f %%)", fig.MinUncore.RuntimeS, fig.RuntimeIncreasePct),
		"CPU package power drop":         fmt.Sprintf("%.1f W", fig.PkgPowerDropW),
		"Uncore share of package power": fmt.Sprintf("≈%.0f %% (%.1f / ≈%.0f W pkg)",
			fig.PkgPowerDropW/maxPkgW*100, fig.PkgPowerDropW, maxPkgW),
	}
	for _, row := range docTable(t, "## Figure 2") {
		w, ok := want[row[0]]
		if !ok {
			t.Errorf("EXPERIMENTS.md Figure 2 row %q is not checked against the golden", row[0])
			continue
		}
		delete(want, row[0])
		if got := row[len(row)-1]; got != w {
			t.Errorf("EXPERIMENTS.md Figure 2 %q: document says %q, golden gives %q", row[0], got, w)
		}
	}
	for q := range want {
		t.Errorf("EXPERIMENTS.md Figure 2 table lacks the %q row", q)
	}
}

// TestExperimentsDocTable1 checks EXPERIMENTS.md's Table 1 (two apps
// per row: app, paper, measured) and its mean absolute deviation from
// the paper against the suite golden at the document's rounding.
// Table 1 is one traced pair per app, independent of the repeat count.
func TestExperimentsDocTable1(t *testing.T) {
	var tab Table1Result
	readSuite(t, "table1.json", &tab)
	var dev float64
	seen := 0
	for _, row := range docTable(t, "## Table 1") {
		for c := 0; c+2 < len(row); c += 4 {
			app := row[c]
			if app == "" {
				continue
			}
			j, ok := tab.Get(app)
			if !ok {
				t.Errorf("EXPERIMENTS.md Table 1 lists %q, which the golden lacks", app)
				continue
			}
			seen++
			if got, w := row[c+2], fmt.Sprintf("%.2f", j); got != w {
				t.Errorf("EXPERIMENTS.md Table 1 %s: document says %s, golden gives %s", app, got, w)
			}
			paper, err := strconv.ParseFloat(row[c+1], 64)
			if err != nil {
				t.Fatalf("Table 1 %s: paper value %q: %v", app, row[c+1], err)
			}
			dev += math.Abs(paper - j)
		}
	}
	if seen != len(tab.Rows) {
		t.Errorf("EXPERIMENTS.md Table 1 lists %d apps, the golden %d", seen, len(tab.Rows))
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	mad := fmt.Sprintf("Mean absolute deviation %.2f.", dev/float64(len(tab.Rows)))
	if !strings.Contains(string(doc), mad) {
		t.Errorf("EXPERIMENTS.md Table 1 section should state %q", mad)
	}
}
