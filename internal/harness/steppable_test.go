package harness

import (
	"errors"
	"math"
	"testing"
	"time"

	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/faults"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/sim"
	"github.com/spear-repro/magus/internal/workload"
)

func mustProg(t *testing.T, name string) *workload.Program {
	t.Helper()
	p, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return p
}

// TestSteppableMatchesRun pins the serve-mode contract: a session
// advanced in arbitrary ragged chunks produces the byte-identical
// Result of the equivalent single-shot Run.
func TestSteppableMatchesRun(t *testing.T) {
	cfg := node.IntelA100()
	prog := mustProg(t, "bfs")
	opts := Options{Seed: 7}

	want, err := Run(cfg, prog, core.New(core.DefaultConfig()), opts)
	if err != nil {
		t.Fatal(err)
	}

	st, err := NewSteppable(cfg, prog, core.New(core.DefaultConfig()), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Ragged, non-aligned chunks: nothing about the result may depend
	// on where the caller's step boundaries fall.
	chunks := []time.Duration{
		3 * time.Millisecond, 777 * time.Millisecond, 2 * time.Second,
		time.Millisecond, 5 * time.Second, 250 * time.Millisecond,
	}
	for i := 0; !st.Done(); i++ {
		done, err := st.Advance(chunks[i%len(chunks)])
		if err != nil {
			t.Fatal(err)
		}
		if done != st.Done() {
			t.Fatalf("Advance returned %v but Done() = %v", done, st.Done())
		}
	}
	got := st.Result()
	want.Traces, got.Traces = nil, nil
	if got != want {
		t.Fatalf("stepped result diverged:\n got  %+v\n want %+v", got, want)
	}
}

// TestSteppableMatchesRunWithFaults repeats the equivalence check with
// a fault plan armed — the injection schedule must not care about step
// boundaries either.
func TestSteppableMatchesRunWithFaults(t *testing.T) {
	cfg := node.IntelA100()
	prog := mustProg(t, "gemm")
	plan, ok := faults.Preset("pcm-flaky")
	if !ok {
		t.Fatal("no pcm-flaky preset")
	}
	plan.Seed = 11
	opts := Options{Seed: 11, Faults: plan}

	want, err := Run(cfg, prog, core.New(core.DefaultConfig()), opts)
	if err != nil {
		t.Fatal(err)
	}

	plan2, _ := faults.Preset("pcm-flaky")
	plan2.Seed = 11
	st, err := NewSteppable(cfg, prog, core.New(core.DefaultConfig()), Options{Seed: 11, Faults: plan2})
	if err != nil {
		t.Fatal(err)
	}
	for !st.Done() {
		if _, err := st.Advance(900 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	got := st.Result()
	want.Traces, got.Traces = nil, nil
	if got != want {
		t.Fatalf("faulted stepped result diverged:\n got  %+v\n want %+v", got, want)
	}
}

// TestSteppableHorizon pins the stuck-at-horizon contract: an
// undersized horizon is an error, and the error repeats on every later
// call instead of silently resuming.
func TestSteppableHorizon(t *testing.T) {
	cfg := node.IntelA100()
	prog := mustProg(t, "bfs")
	st, err := NewSteppable(cfg, prog, governor.NewDefault(), Options{Seed: 1, Horizon: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Advance(5 * time.Second); !errors.Is(err, sim.ErrHorizon) {
		t.Fatalf("err = %v, want ErrHorizon", err)
	}
	if _, err := st.Advance(time.Second); !errors.Is(err, sim.ErrHorizon) {
		t.Fatalf("second call err = %v, want ErrHorizon again", err)
	}
	if st.Done() {
		t.Fatal("horizon-stuck run reports Done")
	}
}

// TestSteppableRejectsBadNoise: a PCM noise amplitude must be a
// finite non-negative number.
func TestSteppableRejectsBadNoise(t *testing.T) {
	prog := mustProg(t, "bfs")
	for _, amp := range []float64{-0.1, math.NaN(), math.Inf(1)} {
		if _, err := NewSteppable(node.IntelA100(), prog, governor.NewDefault(), Options{Seed: 1, PCMNoise: amp}); err == nil {
			t.Errorf("PCMNoise %v accepted", amp)
		}
	}
}

// TestSteppableIdempotentAfterDone pins that advancing a finished run
// is a no-op returning the same result.
func TestSteppableIdempotentAfterDone(t *testing.T) {
	cfg := node.IntelA100()
	prog := mustProg(t, "bfs")
	st, err := NewSteppable(cfg, prog, governor.NewDefault(), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for !st.Done() {
		if _, err := st.Advance(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	first := st.Result()
	done, err := st.Advance(time.Second)
	if err != nil || !done {
		t.Fatalf("Advance after done = (%v, %v), want (true, nil)", done, err)
	}
	if got := st.Result(); got != first {
		t.Fatal("result changed after post-done Advance")
	}
}
