package harness

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"

	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/faults"
	"github.com/spear-repro/magus/internal/flight"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/workload"
)

// flightRun executes the goldens' fixed scenario (MAGUS on Intel+A100
// running bfs, pcm-loss faults armed) with the given ring.
func flightRun(t *testing.T, ring *flight.Ring) Result {
	t.Helper()
	cfg := node.IntelA100()
	prog, _ := workload.ByName("bfs")
	plan, ok := faults.Preset("pcm-loss")
	if !ok {
		t.Fatal("pcm-loss preset missing")
	}
	res, err := Run(cfg, prog, core.New(core.DefaultConfig()),
		Options{Seed: 1, Faults: plan, Flight: ring})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFlightRecordsRun: an armed run leaves decisions, health
// transitions, fault tallies and lifecycle marks in the ring, and its
// Result is byte-identical to the unarmed run (recording is passive).
func TestFlightRecordsRun(t *testing.T) {
	ring := flight.NewRing(4096)
	got := flightRun(t, ring)
	want := flightRun(t, nil)
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if string(gj) != string(wj) {
		t.Fatalf("flight recording perturbed the run\nwant %s\ngot  %s", wj, gj)
	}

	snap := ring.Snapshot()
	if len(snap) == 0 {
		t.Fatal("ring empty after armed run")
	}
	kinds := map[flight.Kind]int{}
	for _, r := range snap {
		kinds[r.Kind]++
	}
	if kinds[flight.KindDecision] == 0 {
		t.Fatal("no decisions recorded")
	}
	if kinds[flight.KindHealth] == 0 {
		t.Fatal("no health transitions recorded (pcm-loss must degrade the sensor)")
	}
	if kinds[flight.KindFault] == 0 {
		t.Fatal("no fault tallies recorded")
	}
	if snap[0].Tag != "run_start" {
		t.Fatalf("first record = %q, want run_start", snap[0].Tag)
	}
	last := snap[len(snap)-1]
	if last.Tag != "run_end" || last.A != got.RuntimeS {
		t.Fatalf("last record = %+v, want run_end with runtime %v", last, got.RuntimeS)
	}

	var buf bytes.Buffer
	if err := ring.DumpJSONL(&buf, "harness-test"); err != nil {
		t.Fatalf("dump: %v", err)
	}
	for _, ln := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var obj map[string]any
		if err := json.Unmarshal(ln, &obj); err != nil {
			t.Fatalf("dump line does not parse: %v (%s)", err, ln)
		}
	}
}

// TestFlightGolden pins the ring's JSONL bytes for the flightRun
// scenario. Regenerate with -update.
func TestFlightGolden(t *testing.T) {
	ring := flight.NewRing(4096)
	flightRun(t, ring)
	var buf bytes.Buffer
	if err := ring.DumpJSONL(&buf, "golden"); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, filepath.Join("testdata", "flight.golden.jsonl"), buf.Bytes())
}

// TestFlightDeterministic: two identical armed runs record identical
// ring contents (the recorder carries no wall-clock state).
func TestFlightDeterministic(t *testing.T) {
	a, b := flight.NewRing(1024), flight.NewRing(1024)
	flightRun(t, a)
	flightRun(t, b)
	var da, db bytes.Buffer
	if err := a.DumpJSONL(&da, "x"); err != nil {
		t.Fatal(err)
	}
	if err := b.DumpJSONL(&db, "x"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da.Bytes(), db.Bytes()) {
		t.Fatal("armed runs are not deterministic")
	}
}
