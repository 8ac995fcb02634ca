package magus_test

// Hot-path benchmark suite (docs/PERF.md). The per-layer benchmarks
// live next to their packages (internal/sim, internal/workload,
// internal/core, internal/node) under the same BenchmarkHotPath prefix;
// this one closes the loop with the full cell. CI runs it once
// (-benchtime=1x) with the other whole-run benchmarks, and
// cmd/benchgate compares the output against BENCH.json.

import (
	"testing"

	magus "github.com/spear-repro/magus"
)

// BenchmarkHotPathFullCell measures one complete experiment cell (UNet
// on Intel+A100 under MAGUS, fixed seed) — the unit the evaluation
// matrix multiplies by apps × governors × systems × repeats.
func BenchmarkHotPathFullCell(b *testing.B) {
	cfg := magus.IntelA100()
	prog, _ := magus.WorkloadByName("unet")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := magus.Run(cfg, prog, magus.NewRuntime(magus.DefaultConfig()),
			magus.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
