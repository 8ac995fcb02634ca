package cluster

import (
	"fmt"
	"testing"
	"time"

	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/sim"
)

// benchFleetSpecs builds an n-member mixed-preset fleet: Intel+A100,
// Intel+4xA100 and Intel+Max1550 nodes round-robin, MAGUS on every
// other member, short staggered workloads. No faults — benchmarks want
// a stable instruction mix, the identity tests own fault coverage.
func benchFleetSpecs(n int) []NodeSpec {
	presets := []func() node.Config{node.IntelA100, node.Intel4A100, node.IntelMax1550}
	specs := make([]NodeSpec, n)
	for i := range specs {
		spec := NodeSpec{
			Name:     fmt.Sprintf("node%d", i),
			Config:   presets[i%3](),
			Workload: fleetProg(fmt.Sprintf("w%d", i%4), 1200+300*(i%4)),
			Seed:     1 + int64(i)*131,
		}
		if i%2 == 0 {
			spec.Factory = magusFactory
		}
		specs[i] = spec
	}
	return specs
}

// nodeSteps converts a finished run into its node-step count: every
// member ticks once per sim.DefaultStep for the whole makespan.
func nodeSteps(nodes int, makespanS float64) float64 {
	return float64(nodes) * makespanS / sim.DefaultStep.Seconds()
}

var benchSink Result

// BenchmarkFleetSteps measures whole-run throughput of the sharded
// engine (Shards=GOMAXPROCS, full telemetry — the exact Run path) in
// node-steps per second. CI gates nodes=100 and nodes=1000 against
// BENCH.json; nodes=10000 is the headline fleet-scale number, measured
// out of band (docs/FLEET.md) to keep CI wall-clock sane.
func BenchmarkFleetSteps(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			specs := benchFleetSpecs(n)
			b.ReportAllocs()
			b.ResetTimer()
			var steps float64
			for i := 0; i < b.N; i++ {
				res, err := RunFleet(specs, Options{})
				if err != nil {
					b.Fatal(err)
				}
				steps += nodeSteps(n, res.MakespanS)
				benchSink = res
			}
			b.ReportMetric(steps/b.Elapsed().Seconds(), "node-steps/s")
		})
	}
}

// BenchmarkFleetStepsSingle is the pre-sharding baseline: the same
// fleets through the retained single-engine reference path. The
// node-steps/s ratio against BenchmarkFleetSteps is the honest
// before/after for the serial table in docs/FLEET.md.
func BenchmarkFleetStepsSingle(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			specs := benchFleetSpecs(n)
			b.ReportAllocs()
			b.ResetTimer()
			var steps float64
			for i := 0; i < b.N; i++ {
				res, err := runReference(specs, 0, nil)
				if err != nil {
					b.Fatal(err)
				}
				steps += nodeSteps(n, res.MakespanS)
				benchSink = res
			}
			b.ReportMetric(steps/b.Elapsed().Seconds(), "node-steps/s")
		})
	}
}

// BenchmarkFleetTick measures the steady-state per-tick cost of one
// warmed shard — the amortised per-node step the benchgate holds to
// zero allocations. Workloads run for an hour of virtual time so the
// measured ticks sit mid-flight, not in post-completion idle.
func BenchmarkFleetTick(b *testing.B) {
	for _, n := range []int{1000} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			specs := make([]NodeSpec, n)
			for i := range specs {
				specs[i] = NodeSpec{
					Config:   node.IntelA100(),
					Workload: fleetProg(fmt.Sprintf("w%d", i%4), 3_600_000),
					Seed:     1 + int64(i)*131,
				}
				if i%2 == 0 {
					specs[i].Factory = magusFactory
				}
			}
			normalized, every, _, err := normalize(specs, 0)
			if err != nil {
				b.Fatal(err)
			}
			// Oversized sample arena: the 0-alloc gate must not trip on
			// arena growth at long benchtimes.
			sh := newShard(normalized, every, 1<<16, Options{})
			if sh.buildErr != nil {
				b.Fatal(sh.buildErr)
			}
			for sh.clock < 1500*time.Millisecond { // warm past startup transients
				sh.tick()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sh.tick()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/node-step")
		})
	}
}
