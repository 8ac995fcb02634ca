package core_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/faults"
	"github.com/spear-repro/magus/internal/harness"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// decisionRuns are the fixed scenarios behind decisions.golden: MAGUS
// on Intel+A100 running srad at seed 1, across the fault presets that
// reach every fail-safe arm of Algorithm 3 (missed samples, sensor
// loss, recovery re-entry into warm-up, failed MSR writes) and the
// configuration switches that change its transition.
var decisionRuns = []struct {
	name  string
	cfg   func(*core.Config)
	plan  func() *faults.Plan
	perSk bool
}{
	{name: "default"},
	{name: "pcm-loss", plan: preset("pcm-loss", 1)},
	{name: "pcm-outage", plan: preset("pcm-outage", 1)},
	// Fault seed 2 first fails an uncore write at cycle 21, early enough
	// to change the run's final counters.
	{name: "msr-flaky", plan: preset("msr-flaky", 2)},
	{name: "warmup-at-max", cfg: func(c *core.Config) { c.WarmupAtMax = true }},
	{name: "no-high-freq", cfg: func(c *core.Config) { c.DisableHighFreq = true }},
	{name: "warmup-blind", plan: func() *faults.Plan {
		// A PCM outage inside the 2 s warm-up: no decision to hold yet.
		return &faults.Plan{Seed: 1, Faults: []faults.Fault{
			{Target: faults.TargetPCM, Class: faults.ClassError, OnsetS: 0.5, DurationS: 1},
		}}
	}},
	{name: "persocket", perSk: true},
}

func preset(name string, seed int64) func() *faults.Plan {
	return func() *faults.Plan {
		p, ok := faults.Preset(name)
		if !ok {
			panic("no fault preset " + name)
		}
		p.Seed = seed
		return p
	}
}

// TestDecisionStreamGolden pins every field of every MDFS decision,
// and the final runtime counters, of the decisionRuns scenarios. The
// PerSocket run pins only its summed counters. Regenerate with
// `go test ./internal/core -run DecisionStreamGolden -update`.
func TestDecisionStreamGolden(t *testing.T) {
	prog, ok := workload.ByName("srad")
	if !ok {
		t.Fatal("no workload srad")
	}
	var buf bytes.Buffer
	buf.WriteString("# at_ns throughput_gbs trend high_freq warmup target_ghz prev_ghz acted missed health deriv_gbs ring_fill reason\n")
	reasons := map[string]int{}
	for _, run := range decisionRuns {
		cfg := core.DefaultConfig()
		if run.cfg != nil {
			run.cfg(&cfg)
		}
		opt := harness.Options{Seed: 1}
		if run.plan != nil {
			opt.Faults = run.plan()
		}
		fmt.Fprintf(&buf, "run %s\n", run.name)
		if run.perSk {
			ps := core.NewPerSocket(cfg)
			if _, err := harness.Run(node.IntelA100(), prog, ps, opt); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "stats %+v\n", ps.Stats())
			continue
		}
		m := core.New(cfg)
		m.OnDecision(func(d core.Decision) {
			reasons[d.Reason]++
			buf.WriteString(formatDecision(d))
		})
		if _, err := harness.Run(node.IntelA100(), prog, m, opt); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "stats %+v\n", m.Stats())
	}
	for _, r := range []string{
		core.ReasonWarmup, core.ReasonWarmupExit, core.ReasonHighFreqPin,
		core.ReasonTrendUp, core.ReasonTrendDown, core.ReasonFlatHold,
		core.ReasonHoldDegraded, core.ReasonPinLost, core.ReasonPinWarmupBlind,
	} {
		if reasons[r] == 0 {
			t.Errorf("reason %q never occurs in the golden runs", r)
		}
	}
	checkGolden(t, filepath.Join("testdata", "decisions.golden"), buf.Bytes())
}

// formatDecision renders every Decision field; floats use the shortest
// representation that round-trips exactly.
func formatDecision(d core.Decision) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return strings.Join([]string{
		strconv.FormatInt(int64(d.At), 10), f(d.ThroughputGBs), d.Trend.String(),
		strconv.FormatBool(d.HighFreq), strconv.FormatBool(d.Warmup),
		f(d.TargetGHz), f(d.PrevGHz), strconv.FormatBool(d.Acted), strconv.FormatBool(d.Missed),
		d.SensorHealth.String(), f(d.DerivGBs), strconv.Itoa(d.RingFill), d.Reason,
	}, " ") + "\n"
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
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
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden (len got %d, want %d); regenerate with -update only for an intended change",
			filepath.Base(path), len(got), len(want))
	}
}
