package harness

import (
	"strings"
	"testing"
	"time"

	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/obs"
	"github.com/spear-repro/magus/internal/workload"
)

func defaultGov() governor.Governor { return governor.NewDefault() }

// TestRepeatSpecsSeedContract pins the per-repeat seed derivation the
// parallel engine relies on: repeat i runs at Seed + i*7919, every
// repeat seed is distinct, and TraceInterval is disabled inside
// repeats regardless of the caller's setting.
func TestRepeatSpecsSeedContract(t *testing.T) {
	cfg := node.IntelA100()
	prog, _ := workload.ByName("bfs")
	base := Options{Seed: 42, TraceInterval: 100 * time.Millisecond, Jobs: 8}
	specs := RepeatSpecs(cfg, prog, defaultGov, 5, base)
	if len(specs) != 5 {
		t.Fatalf("len = %d, want 5", len(specs))
	}
	seen := map[int64]bool{}
	for i, s := range specs {
		want := int64(42) + int64(i)*7919
		if s.Opt.Seed != want {
			t.Fatalf("repeat %d: seed %d, want %d (Seed + i*7919 is a stable contract)", i, s.Opt.Seed, want)
		}
		if seen[s.Opt.Seed] {
			t.Fatalf("repeat %d: duplicate seed %d", i, s.Opt.Seed)
		}
		seen[s.Opt.Seed] = true
		if s.Opt.TraceInterval != 0 {
			t.Fatalf("repeat %d: TraceInterval %v leaked into repeat (must be 0)", i, s.Opt.TraceInterval)
		}
	}
	if got := RepeatSpecs(cfg, prog, defaultGov, 0, base); len(got) != 1 {
		t.Fatalf("reps<1 must clamp to one spec, got %d", len(got))
	}
}

func TestRunBatchOrderAndDeterminismAcrossJobs(t *testing.T) {
	cfg := node.IntelA100()
	progs := []string{"bfs", "srad", "bfs", "srad"}
	build := func() []RunSpec {
		specs := make([]RunSpec, 0, len(progs))
		for i, name := range progs {
			prog, _ := workload.ByName(name)
			specs = append(specs, RunSpec{
				Cfg: cfg, Prog: prog,
				Factory: func() governor.Governor { return core.New(core.DefaultConfig()) },
				Opt:     Options{Seed: int64(1 + i)},
			})
		}
		return specs
	}
	serial, err := RunBatch(build(), 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunBatch(build(), 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].Workload != progs[i] {
			t.Fatalf("result %d out of order: %s, want %s", i, serial[i].Workload, progs[i])
		}
		if serial[i] != par[i] {
			t.Fatalf("jobs=8 diverges from jobs=1 at cell %d:\n%+v\n%+v", i, serial[i], par[i])
		}
	}
}

func TestRunRepeatedParallelMatchesSerial(t *testing.T) {
	cfg := node.IntelA100()
	prog, _ := workload.ByName("srad")
	factory := func() governor.Governor { return core.New(core.DefaultConfig()) }
	var clean Result
	for _, amp := range []float64{0, 0.2} {
		a, err := RunRepeated(cfg, prog, factory, 5, Options{Seed: 3, PCMNoise: amp, Jobs: 1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunRepeated(cfg, prog, factory, 5, Options{Seed: 3, PCMNoise: amp, Jobs: 8})
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("PCMNoise %v: RunRepeated jobs=8 diverges from jobs=1:\n%+v\n%+v", amp, a, b)
		}
		if amp == 0 {
			clean = a
		} else if a == clean {
			t.Fatalf("PCMNoise %v left the result equal to the clean run", amp)
		}
	}
}

func TestRunBatchPropagatesError(t *testing.T) {
	cfg := node.IntelA100()
	prog, _ := workload.ByName("unet")
	specs := RepeatSpecs(cfg, prog, defaultGov, 4, Options{Seed: 1, Horizon: time.Second})
	if _, err := RunBatch(specs, 4); err == nil {
		t.Fatal("horizon error not propagated from batch")
	}
}

func TestRunBatchRegistersPoolMetrics(t *testing.T) {
	cfg := node.IntelA100()
	prog, _ := workload.ByName("bfs")
	o := obs.New(obs.NewRegistry(), nil)
	specs := RepeatSpecs(cfg, prog, defaultGov, 2, Options{Seed: 1, Obs: o})
	if _, err := RunBatch(specs, 2); err != nil {
		t.Fatal(err)
	}
	fams := o.Registry().Text()
	for _, name := range []string{
		"magus_pool_workers",
		"magus_pool_inflight_cells",
		"magus_pool_cells_completed_total",
		"magus_pool_cell_duration_seconds",
	} {
		if !strings.Contains(fams, name) {
			t.Fatalf("pool metric %s not registered; exposition:\n%s", name, fams)
		}
	}
}
