package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// The suite golden freezes the exact bytes of every driver call of the
// paper suite: each figure, both tables and every extension study, one
// JSON file each under testdata/suite. A refactor of the drivers, the
// harness or the simulator must not move a single bit of output: any
// arithmetic reordering, precision change or schedule drift shows up
// here as a golden diff.

func checkExperimentGolden(t *testing.T, name string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "suite", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/experiments -run SuiteGolden -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := i - 60
		if lo < 0 {
			lo = 0
		}
		hi := i + 60
		if hi > len(got) {
			hi = len(got)
		}
		t.Fatalf("%s drifted from its pinned bytes (len got %d, want %d).\n"+
			"A refactor must be byte-identical; a legitimate output change "+
			"needs -update plus an explanation in the change record.\nfirst diff near: %q",
			name, len(got), len(want), got[lo:hi])
	}
}

// suiteOptions is the one option set every pinned driver call uses.
var suiteOptions = Options{Repeats: 2, Seed: 1}

// suiteCalls names every driver call the suite golden pins, with the
// file its result lands in.
var suiteCalls = []struct {
	name string
	run  func(Options) (any, error)
}{
	{"figure1", func(o Options) (any, error) { return Figure1(o) }},
	{"figure2", func(o Options) (any, error) { return Figure2(o) }},
	{"figure4a", func(o Options) (any, error) { return Figure4("Intel+A100", o) }},
	{"figure4b", func(o Options) (any, error) { return Figure4("Intel+Max1550", o) }},
	{"figure4c", func(o Options) (any, error) { return Figure4("Intel+4A100", o) }},
	{"figure5", func(o Options) (any, error) { return Figure5(o) }},
	{"figure6", func(o Options) (any, error) { return Figure6(o) }},
	{"figure7", func(o Options) (any, error) { return Figure7("srad", o) }},
	{"table1", func(o Options) (any, error) { return Table1(o) }},
	{"table2", func(o Options) (any, error) { return Table2(30*time.Second, o) }},
	{"ablation", func(o Options) (any, error) { return Ablation(o) }},
	{"numa", func(o Options) (any, error) { return NUMAStudy(o) }},
	{"noise", func(o Options) (any, error) { return NoiseStudy("unet", o) }},
	{"faults", func(o Options) (any, error) { return FaultSweep("srad", nil, o) }},
	{"waste", func(o Options) (any, error) { return WasteStudy("Intel+A100", "srad", o) }},
	{"tenants", func(o Options) (any, error) { return TenantStudy("Intel+A100", o) }},
	{"tournament", func(o Options) (any, error) {
		return Tournament(TournamentOptions{Apps: []string{"srad"}, Seed: o.Seed, Jobs: o.Jobs})
	}},
	{"fleet", func(o Options) (any, error) { return FleetStudy(FleetOptions{Nodes: 12, Seed: o.Seed}) }},
}

// TestSuiteGolden pins every driver call of the paper suite (2 repeats,
// seed 1) to its bytes in testdata/suite.
func TestSuiteGolden(t *testing.T) {
	for _, c := range suiteCalls {
		t.Run(c.name, func(t *testing.T) {
			res, err := c.run(suiteOptions)
			if err != nil {
				t.Fatal(err)
			}
			checkExperimentGolden(t, c.name+".json", res)
		})
	}
}
