package experiments

// The §2 contrast, validated end to end: on a traditional CPU-only
// node running a CPU-heavy solver, package power approaches TDP and
// the vendor's hardware clamp visibly reduces the uncore frequency —
// while the same vendor default never touches the uncore for
// GPU-dominant workloads (TestFigure1UncoreStaysPinned covers that
// side).

import (
	"testing"
	"time"

	"github.com/spear-repro/magus/internal/harness"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/workload"
)

func TestCPUOnlyTDPClampEngages(t *testing.T) {
	cfg := node.IntelCPUOnly()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(cfg.GPUs) != 0 {
		t.Fatal("CPU-only preset has GPUs")
	}
	prog, ok := workload.ByName("hpc_cg")
	if !ok {
		t.Fatal("hpc_cg missing")
	}
	res, err := harness.Run(cfg, prog, policy(cfg.Name, "default")(), harness.Options{
		Seed:          1,
		TraceInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Package power approaches TDP...
	unc := res.Traces.Series("uncore_ghz")
	pkg := res.Traces.Series("pkg0_power_w")
	if pkg.Max() < 0.9*cfg.TDPWatts {
		t.Fatalf("CPU-heavy pkg power peaks at %.0f W, want near TDP %.0f", pkg.Max(), cfg.TDPWatts)
	}
	// ...and the hardware clamp pulls the uncore below its maximum.
	min := unc.Values[0]
	for _, v := range unc.Values {
		if v < min {
			min = v
		}
	}
	if min > 0.9*cfg.UncoreMaxGHz {
		t.Fatalf("uncore never clamped (min %.2f GHz) despite near-TDP power", min)
	}
	// GPU energy must be exactly zero on this preset.
	if res.GPUEnergyJ != 0 {
		t.Fatalf("GPU energy %.1f J on a GPU-less node", res.GPUEnergyJ)
	}
}

// Scope boundary: MAGUS's single signal saturates on a CPU-only,
// memory-saturated solver — served throughput flattens at the
// bandwidth ceiling, so after one sharp fall there is no rise left to
// detect and the runtime parks the uncore at minimum while the
// application starves. UPS's per-core IPC guard (built for exactly
// this domain) catches the damage and backs off. A faithful
// reproduction should surface this boundary, not hide it: the paper
// scopes MAGUS to GPU-dominant workloads, where CPU package power
// never pins the signal against the bandwidth ceiling.
func TestCPUOnlyScopeBoundary(t *testing.T) {
	cfg := node.IntelCPUOnly()
	prog, _ := workload.ByName("hpc_cg")
	opt := harness.Options{Seed: 1}

	base, err := harness.Run(cfg, prog, policy(cfg.Name, "default")(), opt)
	if err != nil {
		t.Fatal(err)
	}
	magusRes, err := harness.Run(cfg, prog, policy(cfg.Name, "magus")(), opt)
	if err != nil {
		t.Fatal(err)
	}
	upsRes, err := harness.Run(cfg, prog, policy(cfg.Name, "ups")(), opt)
	if err != nil {
		t.Fatal(err)
	}
	m := harness.Compare(base, magusRes)
	u := harness.Compare(base, upsRes)
	if m.PerfLossPct < 10 {
		t.Fatalf("expected MAGUS to starve the saturated CPU solver (loss %.1f %%)", m.PerfLossPct)
	}
	if u.PerfLossPct >= m.PerfLossPct/2 {
		t.Fatalf("UPS's IPC guard should bound the damage: UPS %.1f %% vs MAGUS %.1f %%",
			u.PerfLossPct, m.PerfLossPct)
	}
}
