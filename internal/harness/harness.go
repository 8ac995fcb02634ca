// Package harness runs complete experiments: it wires a workload
// runner, the node simulator, a governor and telemetry onto the
// simulation engine, executes the run to completion, and reduces the
// results into the paper's three metrics (§5):
//
//   - performance loss: percentage runtime increase versus baseline;
//   - power saving: average CPU (package + DRAM) power reduction;
//   - energy saving: total (CPU package + DRAM + GPU board)
//     energy-to-solution reduction.
//
// Repeated runs use distinct seeds and the paper's outlier-trimmed
// averaging (§6).
package harness

import (
	"fmt"
	"time"

	"github.com/spear-repro/magus/internal/attrib"
	"github.com/spear-repro/magus/internal/faults"
	"github.com/spear-repro/magus/internal/flight"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/obs"
	"github.com/spear-repro/magus/internal/pcm"
	"github.com/spear-repro/magus/internal/rapl"
	"github.com/spear-repro/magus/internal/spans"
	"github.com/spear-repro/magus/internal/telemetry"
	"github.com/spear-repro/magus/internal/workload"
)

// Options controls a single run.
type Options struct {
	// Seed drives the workload's pseudo-random modulation.
	Seed int64
	// Step is the engine timestep (0 = sim.DefaultStep).
	Step time.Duration
	// TraceInterval enables telemetry recording at that period
	// (0 = no traces). Figures 1/5/6 use 100 ms.
	TraceInterval time.Duration
	// Horizon bounds the run (0 = 4× nominal duration + 10 s).
	Horizon time.Duration
	// PCMNoise is the relative amplitude A of the measurement noise on
	// every PCM monitor the governor sees: each reading is scaled by a
	// factor drawn from [1-A, 1+A] out of one stream seeded from Seed
	// and A (0 = no noise).
	PCMNoise float64
	// Faults arms a deterministic fault schedule against the node's
	// telemetry devices (nil/empty = no injection, bit-identical to the
	// unfaulted path).
	Faults *faults.Plan
	// Obs attaches a metrics/event observer to the run. Observation is
	// passive — it only reads state the simulation already computed —
	// so an observed run produces bit-identical traces and Stats() to
	// an unobserved one (nil = no observability, zero overhead).
	Obs *obs.Observer
	// Jobs bounds the worker pool RunRepeated fans repeats across
	// (<= 0 = GOMAXPROCS). Results are byte-identical for any value.
	Jobs int
	// Spans attaches a decision-causality tracer and waste ledger to
	// the run (nil = disabled; the disabled path adds no component, no
	// device wrapper and no allocations, so it stays byte-identical to
	// the seed). Tracers are single-run objects: like governors, they
	// must not be shared across runs, and RepeatSpecs nils them out.
	Spans *spans.Tracer
	// Flight attaches a bounded flight recorder (internal/flight): the
	// run's recent governor decisions, sensor-health transitions and
	// fault tallies land in the ring, ready to dump on a panic or
	// SIGQUIT. Recording is passive and allocation-free; nil (the
	// default) adds no component and stays byte-identical to the seed.
	// Rings are single-run diagnostics: RepeatSpecs nils them out.
	Flight *flight.Ring
	// Tenants co-locates several workloads on the node through a
	// time-slicing multiplexer and attributes measured energy across
	// them (Result.Tenants). It replaces the program argument: callers
	// pass a nil program when set. Nil = single-tenant, the unchanged
	// seed path.
	Tenants *workload.MuxSpec
}

// Result is one run's outcome.
type Result struct {
	System   string
	Workload string
	Governor string

	// RuntimeS is the application's end-to-end runtime in seconds.
	RuntimeS float64
	// AvgCPUPowerW is the run-average package+DRAM power.
	AvgCPUPowerW float64
	// Energy-to-solution components, joules.
	PkgEnergyJ  float64
	DramEnergyJ float64
	GPUEnergyJ  float64

	// Traces holds the recorder when Options.TraceInterval was set.
	Traces *telemetry.Recorder

	// FaultsInjected tallies device-fault injections when a plan was
	// armed (zero otherwise).
	FaultsInjected faults.Tally

	// Tenants is the per-tenant energy attribution of a co-located run
	// (nil for single-tenant runs).
	Tenants *attrib.Report `json:",omitempty"`
}

// TotalEnergyJ is the paper's energy metric: CPU package + DRAM + GPU
// board energy.
func (r Result) TotalEnergyJ() float64 { return r.PkgEnergyJ + r.DramEnergyJ + r.GPUEnergyJ }

// Run executes prog on a node built from cfg under gov and returns the
// metrics. The governor is attached fresh; governors are stateful and
// must not be reused across runs. Run is NewSteppable driven to
// completion in one call; the two paths perform the identical
// computation and produce byte-identical results.
func Run(cfg node.Config, prog *workload.Program, gov governor.Governor, opt Options) (Result, error) {
	st, err := NewSteppable(cfg, prog, gov, opt)
	if err != nil {
		return Result{}, err
	}
	if _, err := st.eng.RunUntil(st.src.Done, st.horizon); err != nil {
		return Result{}, fmt.Errorf("harness: %s/%s/%s: %w", cfg.Name, st.wname, gov.Name(), err)
	}
	return st.finish(), nil
}

// BuildEnv wires a governor environment onto a node: the node's MSR
// device, a PCM monitor over its IMC traffic counter, a RAPL reader,
// and the overhead-charging hook.
func BuildEnv(n *node.Node) (*governor.Env, error) {
	env, _, err := buildEnv(n, nil, nil)
	return env, err
}

// BuildFaultyEnv is BuildEnv with a fault-wrapper set interposed on
// the telemetry devices, for code that rebuilds the run wiring by hand:
// the benchmark's traced replica and the cluster test oracle. A nil set
// is exactly BuildEnv.
func BuildFaultyEnv(n *node.Node, fset *faults.Set) (*governor.Env, error) {
	env, _, err := buildEnv(n, fset, nil)
	return env, err
}

// envMonitors exposes the concrete PCM monitors underneath the fault
// wrappers and the noise stream they share, so the checkpoint layer can
// capture and restore their sampling baselines directly.
type envMonitors struct {
	sys   *pcm.Monitor
	sock  []*pcm.Monitor
	noise *pcm.Noise // nil for a noise-free run
}

// buildEnv is BuildEnv plus an optional fault-wrapper set and PCM
// measurement noise. The MSR device is wrapped *before* the RAPL reader
// is constructed over it, so rapl-target faults reach the energy
// counters; noise applies to the concrete monitors before fault
// wrapping, so an injected stale/wild value is never re-noised.
func buildEnv(n *node.Node, fset *faults.Set, noise *pcm.Noise) (*governor.Env, *envMonitors, error) {
	cfg := n.Config()
	dev := fset.WrapDevice(n.MSRDevice())
	raplReader, err := rapl.New(dev, cfg.Sockets, n.Space().FirstCPUOf)
	if err != nil {
		if !fset.Armed() {
			return nil, nil, fmt.Errorf("harness: rapl: %w", err)
		}
		// An injected fault hit the one-time unit-register read; run
		// without RAPL, as a daemon losing the energy interface would.
		raplReader = nil
	}
	mon := pcm.New(n.ServedGB)
	mon.SetNoise(noise)
	mons := &envMonitors{sys: mon, noise: noise}
	sockPCM := make([]pcm.Reader, cfg.Sockets)
	for s := 0; s < cfg.Sockets; s++ {
		sock := s
		m := pcm.New(func() float64 { return n.ServedGBSocket(sock) })
		m.SetNoise(noise)
		mons.sock = append(mons.sock, m)
		sockPCM[s] = fset.WrapPCM(m)
	}
	return &governor.Env{
		Dev:          dev,
		PCM:          fset.WrapPCM(mon),
		RAPL:         raplReader,
		Sockets:      cfg.Sockets,
		CPUs:         cfg.Sockets * cfg.CoresPerSocket,
		FirstCPU:     n.Space().FirstCPUOf,
		SocketPCM:    sockPCM,
		UncoreMinGHz: cfg.UncoreMinGHz,
		UncoreMaxGHz: cfg.UncoreMaxGHz,
		Charge:       n.AddDaemonBusy,
	}, mons, nil
}

// NewNodeRecorder builds the standard telemetry set used by the trace
// figures: memory throughput, uncore/core/GPU frequencies, and power by
// domain.
func NewNodeRecorder(n *node.Node, interval time.Duration) *telemetry.Recorder {
	rec := telemetry.NewRecorder(interval)
	rec.Track("mem_gbs", n.AttainedGBs)
	rec.Track("uncore_ghz", func() float64 { return n.UncoreFreqGHz(0) })
	rec.Track("cpu_power_w", n.CPUPowerW)
	rec.Track("pkg0_power_w", func() float64 { return n.PkgPowerW(0) })
	rec.Track("dram_power_w", func() float64 {
		var p float64
		for s := 0; s < n.Config().Sockets; s++ {
			p += n.DramPowerW(s)
		}
		return p
	})
	for c := 0; c < 4 && c < n.Config().CoresPerSocket; c++ {
		cpu := c
		rec.Track(fmt.Sprintf("core%d_ghz", cpu), func() float64 { return n.CoreFreqGHz(cpu) })
	}
	if n.GPUCount() > 0 {
		rec.Track("gpu0_clock_mhz", func() float64 { return n.GPUClockMHz(0) })
		rec.Track("gpu0_power_w", func() float64 { return n.GPUPowerW(0) })
	}
	return rec
}

// GovernorFactory builds a fresh governor per run (they are stateful).
type GovernorFactory func() governor.Governor

// Comparison is the paper's three-metric comparison of a policy against
// the baseline run.
type Comparison struct {
	PerfLossPct     float64
	PowerSavingPct  float64
	EnergySavingPct float64
}

// Compare reduces (baseline, candidate) results to the three metrics.
func Compare(base, x Result) Comparison {
	var c Comparison
	if base.RuntimeS > 0 {
		c.PerfLossPct = (x.RuntimeS - base.RuntimeS) / base.RuntimeS * 100
	}
	if base.AvgCPUPowerW > 0 {
		c.PowerSavingPct = (base.AvgCPUPowerW - x.AvgCPUPowerW) / base.AvgCPUPowerW * 100
	}
	if be := base.TotalEnergyJ(); be > 0 {
		c.EnergySavingPct = (be - x.TotalEnergyJ()) / be * 100
	}
	return c
}

// RunRepeated executes reps runs with distinct seeds and returns the
// outlier-trimmed mean of every metric (§6's methodology). Repeats fan
// out across opt.Jobs workers; because each repeat is an independent
// deterministic cell, the aggregate is byte-identical for any jobs
// value.
func RunRepeated(cfg node.Config, prog *workload.Program, factory GovernorFactory, reps int, opt Options) (Result, error) {
	results, err := RunBatch(RepeatSpecs(cfg, prog, factory, reps, opt), opt.Jobs)
	if err != nil {
		return Result{}, err
	}
	return Reduce(results), nil
}
