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

// The hot-path goldens freeze the exact bytes of a figure and a table
// produced by the pre-optimization simulator. The zero-allocation tick
// rewrite must not move a single bit of output: any arithmetic
// reordering, precision change or schedule drift in the per-tick path
// shows up here as a golden diff.

func checkExperimentGolden(t *testing.T, name string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/experiments -run HotPathIdentity -update` to create)", err)
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
		t.Fatalf("%s drifted from the pre-optimization bytes (len got %d, want %d).\n"+
			"The hot-path rewrite must be byte-identical; a legitimate output change "+
			"needs -update plus an explanation in the PR.\nfirst diff near: %q",
			name, len(got), len(want), got[lo:hi])
	}
}

// TestHotPathIdentityFigure4a pins Figure 4a (Intel+4A100, 2 repeats,
// seed 1) to its pre-optimization bytes.
func TestHotPathIdentityFigure4a(t *testing.T) {
	res, err := Figure4("Intel+4A100", Options{Repeats: 2, Seed: 1, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkExperimentGolden(t, "figure4a.golden.json", res)
}

// TestHotPathIdentityTable2 pins Table 2 (30 s idle window, 1 repeat,
// seed 1) to its pre-optimization bytes.
func TestHotPathIdentityTable2(t *testing.T) {
	res, err := Table2(30*time.Second, Options{Repeats: 1, Seed: 1, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkExperimentGolden(t, "table2.golden.json", res)
}

// TestHotPathIdentityNoiseStudy pins the PCM noise sweep (unet,
// 2 repeats, seed 1) to its bytes, so a change to how noise reaches
// the monitor cannot move a single reading.
func TestHotPathIdentityNoiseStudy(t *testing.T) {
	res, err := NoiseStudy("unet", Options{Repeats: 2, Seed: 1, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkExperimentGolden(t, "noise.golden.json", res)
}
