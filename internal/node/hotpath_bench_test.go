package node

import (
	"testing"
	"time"

	"github.com/spear-repro/magus/internal/workload"
)

// BenchmarkHotPathNodeStep measures one full node step — uncore slew,
// memory service, per-core DVFS and the power model for every core,
// RAPL accumulation, TDP clamp and GPUs — the dominant per-millisecond
// cost of a cell; steady state must be allocation-free. The demand is
// the sequence a workload runner feeds a node over UNet (seed 1),
// recorded once from a coupled runner and node, so the measured steps
// see the same jittered inputs as the full tick: a constant demand
// would settle into quiet replays and measure those instead. The timed
// loop cycles the recording on one node.
func BenchmarkHotPathNodeStep(b *testing.B) {
	cfg := IntelA100()
	prog, ok := workload.ByName("unet")
	if !ok {
		b.Fatal("unknown workload unet")
	}
	rec := New(cfg)
	runner := workload.NewRunner(prog, cfg.SystemBWGBs(), 1)
	runner.SetAttained(rec.AttainedGBs)
	dt := time.Millisecond
	var demands []workload.Demand
	for now := time.Duration(0); !runner.Done(); now += dt {
		runner.Step(now, dt)
		rec.SetDemand(runner.Demand())
		rec.Step(now, dt)
		demands = append(demands, runner.Demand())
	}
	demands = demands[:len(demands)-1] // the finishing step's demand is idle

	n := New(cfg)
	now := time.Duration(0)
	step := func(i int) {
		n.SetDemand(demands[i%len(demands)])
		n.Step(now, dt)
		now += dt
	}
	const warm = 20000 // past the startup prologue, as the full-tick benchmark warms
	for i := 0; i < warm; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(warm + i)
	}
}
