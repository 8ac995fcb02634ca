package harness

import (
	"testing"
	"time"

	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/workload"
)

// BenchmarkHotPathSpansDisabledTick measures one engine tick of a
// running cell: UNet on Intel+A100 under MAGUS, wired by NewSteppable
// with the trace as the probe's only sink and no tracer — the
// configuration TestSteadyStateTickZeroAlloc pins at zero allocations,
// so cmd/benchgate keeps the spans-disabled hot path at 0 allocs/op.
// The run is checkpointed 20 s in, past MDFS warm-up and lazy buffer
// growth, and every tickSegment timed ticks it is resumed from that
// checkpoint outside the timer. UNet runs until ≈50 s, so every timed
// tick, for any b.N, is a tick of the running workload, the tick the
// per-layer benchmarks (engine, demand, node step) add up to.
func BenchmarkHotPathSpansDisabledTick(b *testing.B) {
	prog, ok := workload.ByName("unet")
	if !ok {
		b.Fatal("unknown workload unet")
	}
	newGov := func() governor.Governor { return core.New(core.DefaultConfig()) }
	st, err := NewSteppable(node.IntelA100(), prog, newGov(), Options{Seed: 1, TraceInterval: 100 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	st.eng.RunFor(20 * time.Second)
	ckpt, err := st.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	const tickSegment = 20000 // 20 s of 1 ms ticks

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%tickSegment == 0 {
			b.StopTimer()
			if st.WorkloadDone() {
				b.Fatal("the workload finished inside a timed segment")
			}
			if st, err = Resume(ckpt, ResumeOptions{Gov: newGov()}); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		st.Tick()
	}
	b.StopTimer()
	if st.WorkloadDone() {
		b.Fatal("the workload finished inside a timed segment")
	}
}

// BenchmarkHotPathUPSInvoke measures one steady-state UPS decision
// cycle on the 80-CPU Intel+A100 node: a RAPL sample and a sweep of
// both fixed counters on every CPU through the node's MSR device. Each
// op is one Node.Step followed by one Invoke, because the node
// publishes its counters on the first read after a step; without the
// step the sweep would read an already-published register file. The
// daemon-busy charge is dropped: 300 ms of modelled invocation work per
// 1 ms step would grow the node's daemon queue without bound.
func BenchmarkHotPathUPSInvoke(b *testing.B) {
	n := node.New(node.IntelA100())
	n.SetDemand(workload.Demand{MemGBs: 200, CPUBusyCores: 20, MemBoundFrac: 0.6})
	env, _, err := buildEnv(n, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	env.Charge = nil
	ups := governor.NewUPS(governor.DefaultUPSConfig())
	if err := ups.Attach(env); err != nil {
		b.Fatal(err)
	}
	now := time.Duration(0)
	op := func() {
		now += time.Millisecond
		n.Step(now, time.Millisecond)
		ups.Invoke(now)
	}
	for i := 0; i < 100; i++ { // past the baseline cycles and phase detection
		op()
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkHotPathQuietMemberTick measures one Steppable.Tick of a run
// whose workload has finished and whose node has settled — the tick a
// finished fleet member pays on every step until the fleet ends, which
// is most fleet member-steps. Under the default (unmanaged) governor
// every such tick is a quiet replay; MAGUS and UPS keep moving core 0
// with daemon work, so most of their ticks still take the full path.
func BenchmarkHotPathQuietMemberTick(b *testing.B) {
	prog := &workload.Program{Name: "short", Phases: []workload.Phase{
		{Name: "run", Duration: 400 * time.Millisecond, Mem: 0.5, Shape: workload.Constant,
			Beta: 0.6, CPUBusyCores: 4, GPUSM: 0.8, GPUMem: 0.4, Jitter: 0.05},
	}}
	for _, tc := range []struct {
		name string
		gov  func() governor.Governor
	}{
		{"default", func() governor.Governor { return governor.Unmanaged{} }},
		{"magus", func() governor.Governor { return core.New(core.DefaultConfig()) }},
		{"ups", func() governor.Governor { return governor.NewUPS(governor.DefaultUPSConfig()) }},
	} {
		b.Run("gov="+tc.name, func(b *testing.B) {
			st, err := NewSteppable(node.IntelA100(), prog, tc.gov(), Options{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			for !st.WorkloadDone() {
				st.Tick()
			}
			for i := 0; i < 3000; i++ { // let the idle node settle
				st.Tick()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.Tick()
			}
		})
	}
}
