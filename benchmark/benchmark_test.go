package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestQuickWorkloads runs every workload untraced and traced at smoke
// size and checks that the correctness gates pass (including the pinned
// digests) and that exactly the metrics BENCHMARK.json names are
// printed, each with its unit.
func TestQuickWorkloads(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricSpec            `json:"end_to_end"`
		PerLayer  []metricSpec            `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		def, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is unknown to the program", w.Name)
		}
		for _, traced := range []bool{false, true} {
			name := w.Name + map[bool]string{false: "/end_to_end", true: "/traced"}[traced]
			t.Run(name, func(t *testing.T) {
				traceOut := filepath.Join(t.TempDir(), "trace.json")
				p := plan{seed: pinnedSeed, seconds: time.Second, quick: true}
				r, err := runWorkload(w.Name, def, p, traced, traceOut)
				if err != nil {
					t.Fatal(err)
				}
				if !r.ok() {
					t.Fatalf("%d of %d operations failed: %v", r.failed, r.attempted, r.problems)
				}
				want := spec.EndToEnd
				if traced {
					want = spec.PerLayer
					checkTrace(t, traceOut)
				}
				checkPrinted(t, r, want)
			})
		}
	}
}

// checkPrinted parses the result line and compares its metrics with
// the declared ones.
func checkPrinted(t *testing.T, r *report, want []metricSpec) {
	t.Helper()
	var buf bytes.Buffer
	r.print(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !out.Correct || out.Attempted < 1 {
		t.Fatalf("result: correct=%v attempted=%d", out.Correct, out.Attempted)
	}
	for _, m := range want {
		got, ok := out.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s not printed", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s printed in %q, declared %q", m.Name, got.Unit, m.Unit)
		}
	}
	if len(out.Metrics) != len(want) {
		t.Errorf("printed %d metrics, declared %d", len(out.Metrics), len(want))
	}
}

// checkTrace opens the written trace the way a viewer would.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &trace); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	names := make(map[string]bool)
	for _, ev := range trace.TraceEvents {
		names[ev.Name] = true
	}
	for _, n := range []string{"harness.cell", "sim.tick", "node.step", "workload.step", "client.step", "serve.step"} {
		if !names[n] {
			t.Errorf("trace has no %s span", n)
		}
	}
}
