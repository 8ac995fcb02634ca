package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBaseline drops a gate file into a temp dir and returns its path.
func writeBaseline(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const twoBenchGate = `{
  "gate": {
    "ns_tolerance_factor": 50,
    "benchmarks": {
      "BenchmarkHotPathSketchAdd":    {"max_allocs_per_op": 0, "baseline_ns_per_op": 18},
      "BenchmarkHotPathFlightRecord": {"max_allocs_per_op": 0, "baseline_ns_per_op": 45}
    }
  }
}`

// TestMissingBenchmarkFails pins the regression this tool exists to
// catch: a gated benchmark that silently stops running (renamed,
// deleted, filtered out by the -bench regexp) must fail the gate, not
// pass it by absence.
func TestMissingBenchmarkFails(t *testing.T) {
	base := writeBaseline(t, twoBenchGate)
	// Input carries only one of the two gated benchmarks.
	in := strings.NewReader(
		"BenchmarkHotPathSketchAdd-8   \t61571450\t        18.24 ns/op\t       0 B/op\t       0 allocs/op\n")
	var out strings.Builder
	failures, err := run(base, in, &out)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 1 {
		t.Fatalf("failures = %d, want 1\noutput:\n%s", failures, out.String())
	}
	if !strings.Contains(out.String(), "FAIL  BenchmarkHotPathFlightRecord: missing from input") {
		t.Fatalf("missing-benchmark verdict not reported:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "ok    BenchmarkHotPathSketchAdd") {
		t.Fatalf("present benchmark should still pass:\n%s", out.String())
	}
}

func TestAllBenchmarksWithinBudget(t *testing.T) {
	base := writeBaseline(t, twoBenchGate)
	in := strings.NewReader(strings.Join([]string{
		"goos: linux",
		"BenchmarkHotPathSketchAdd-8   \t61571450\t        18.24 ns/op\t       0 B/op\t       0 allocs/op",
		"BenchmarkHotPathFlightRecord-8\t26531120\t        45.43 ns/op\t       0 B/op\t       0 allocs/op",
		"PASS",
	}, "\n"))
	var out strings.Builder
	failures, err := run(base, in, &out)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 0 {
		t.Fatalf("failures = %d, want 0\noutput:\n%s", failures, out.String())
	}
	if !strings.Contains(out.String(), "benchgate: 2 benchmark(s) within budget") {
		t.Fatalf("summary line missing:\n%s", out.String())
	}
}

func TestAllocAndTimeOverruns(t *testing.T) {
	base := writeBaseline(t, twoBenchGate)
	in := strings.NewReader(strings.Join([]string{
		// 3 allocs/op against a budget of 0.
		"BenchmarkHotPathSketchAdd-8   \t1000000\t        18.24 ns/op\t      48 B/op\t       3 allocs/op",
		// 45 × 50 = 2250 ns limit; 9000 ns blows it.
		"BenchmarkHotPathFlightRecord-8\t1000000\t      9000.00 ns/op\t       0 B/op\t       0 allocs/op",
	}, "\n"))
	var out strings.Builder
	failures, err := run(base, in, &out)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 2 {
		t.Fatalf("failures = %d, want 2\noutput:\n%s", failures, out.String())
	}
	if !strings.Contains(out.String(), "3 allocs/op, budget 0") {
		t.Fatalf("alloc overrun not reported:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "ns/op exceeds") {
		t.Fatalf("time overrun not reported:\n%s", out.String())
	}
}

// TestMissingAllocsColumn: a run without -benchmem cannot certify the
// allocation budget, so it must fail rather than pass vacuously.
func TestMissingAllocsColumn(t *testing.T) {
	base := writeBaseline(t, `{
  "gate": {
    "ns_tolerance_factor": 50,
    "benchmarks": {"BenchmarkHotPathSketchAdd": {"max_allocs_per_op": 0, "baseline_ns_per_op": 18}}
  }
}`)
	in := strings.NewReader("BenchmarkHotPathSketchAdd-8   \t61571450\t        18.24 ns/op\n")
	var out strings.Builder
	failures, err := run(base, in, &out)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 1 || !strings.Contains(out.String(), "run with -benchmem") {
		t.Fatalf("failures = %d, output:\n%s", failures, out.String())
	}
}

// TestCustomMetricColumns: b.ReportMetric columns between ns/op and
// the -benchmem pair must not confuse the parser.
func TestCustomMetricColumns(t *testing.T) {
	base := writeBaseline(t, `{
  "gate": {
    "ns_tolerance_factor": 50,
    "benchmarks": {"BenchmarkHotPathFleetSketchTick": {"max_allocs_per_op": 0, "baseline_ns_per_op": 54685}}
  }
}`)
	in := strings.NewReader(
		"BenchmarkHotPathFleetSketchTick-8\t21914\t     54685 ns/op\t   1408992 node-steps/s\t       0 B/op\t       0 allocs/op\n")
	var out strings.Builder
	failures, err := run(base, in, &out)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 0 {
		t.Fatalf("failures = %d, want 0\noutput:\n%s", failures, out.String())
	}
}

func TestBadBaselineRejected(t *testing.T) {
	cases := map[string]string{
		"empty gate":   `{"gate": {"ns_tolerance_factor": 50, "benchmarks": {}}}`,
		"tolerance<=1": `{"gate": {"ns_tolerance_factor": 1, "benchmarks": {"BenchmarkX": {"max_allocs_per_op": 0, "baseline_ns_per_op": 1}}}}`,
		"not json":     `not json at all`,
	}
	for name, body := range cases {
		base := writeBaseline(t, body)
		var out strings.Builder
		if _, err := run(base, strings.NewReader(""), &out); err == nil {
			t.Errorf("%s: run accepted a bad baseline", name)
		}
	}
	var out strings.Builder
	if _, err := run(filepath.Join(t.TempDir(), "absent.json"), strings.NewReader(""), &out); err == nil {
		t.Error("run accepted a nonexistent baseline path")
	}
}

// TestCommittedGateFile loads the repository's BENCH.json: it parses,
// carries exactly one tolerance factor (above 1, which loadBaseline
// checks), and gates exactly the benchmarks the suites record results
// for.
func TestCommittedGateFile(t *testing.T) {
	path := filepath.Join("..", "..", "BENCH.json")
	base, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(raw), `"ns_tolerance_factor"`); n != 1 {
		t.Errorf("%d ns_tolerance_factor keys, want 1", n)
	}
	var doc struct {
		Suites []struct {
			Name    string `json:"name"`
			Results []struct {
				Benchmark string `json:"benchmark"`
			} `json:"results"`
		} `json:"suites"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Suites) == 0 {
		t.Fatal("no suites")
	}
	measured := map[string]bool{}
	for _, s := range doc.Suites {
		if len(s.Results) == 0 {
			t.Errorf("suite %q records no results", s.Name)
		}
		for _, r := range s.Results {
			measured[r.Benchmark] = true
			if _, ok := base.Gate.Benchmarks[r.Benchmark]; !ok {
				t.Errorf("suite %q: %s has results but no gate entry", s.Name, r.Benchmark)
			}
		}
	}
	for name := range base.Gate.Benchmarks {
		if !measured[name] {
			t.Errorf("%s is gated but no suite records results for it", name)
		}
	}
}
