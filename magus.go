// Package magus is the public API of the MAGUS reproduction: a
// model-free, lightweight, user-transparent uncore frequency-scaling
// runtime for heterogeneous CPU–GPU systems ("Minimizing Power Waste in
// Heterogeneous Computing via Adaptive Uncore Scaling", SC '25),
// together with the full simulated substrate it runs on — MSR register
// files, RAPL/PCM-style monitoring, a calibrated node power and
// performance model, the published workload suite, the UPScavenger
// baseline, and a harness that regenerates every table and figure of
// the paper's evaluation.
//
// # Quick start
//
//	cfg := magus.IntelA100()
//	prog, _ := magus.WorkloadByName("unet")
//	base, _ := magus.Run(cfg, prog, magus.NewDefaultGovernor(), magus.Options{Seed: 1})
//	tuned, _ := magus.Run(cfg, prog, magus.NewRuntime(magus.DefaultConfig()), magus.Options{Seed: 1})
//	fmt.Printf("%+v\n", magus.Compare(base, tuned))
//
// The package is a thin facade: each symbol aliases its implementation
// in the internal packages, so the whole system is reachable from a
// single import.
package magus

import (
	"io"
	"time"

	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/harness"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/telemetry"
	"github.com/spear-repro/magus/internal/workload"
)

// ---- The MAGUS runtime (the paper's contribution) ----

// Runtime is the MAGUS uncore frequency-scaling runtime (Algorithms
// 1–3 of the paper). It implements Governor.
type Runtime = core.MAGUS

// Config holds the runtime's thresholds and timing (§3.3).
type Config = core.Config

// Decision is one traced MDFS cycle.
type Decision = core.Decision

// RuntimeStats aggregates runtime counters (invocations, tune events,
// high-frequency overrides, MSR writes).
type RuntimeStats = core.Stats

// Trend is a memory-throughput trend prediction (Algorithm 1).
type Trend = core.Trend

// Trend values.
const (
	TrendDown = core.TrendDown
	TrendFlat = core.TrendFlat
	TrendUp   = core.TrendUp
)

// DefaultConfig returns the paper's recommended thresholds, rescaled
// to this implementation's units (see internal/core).
func DefaultConfig() Config { return core.DefaultConfig() }

// NewRuntime builds a MAGUS runtime; attach it to a node by running it
// through Run, or manually via BuildEnv + Attach.
func NewRuntime(cfg Config) *Runtime { return core.New(cfg) }

// ---- Governors ----

// Governor is an uncore frequency-scaling policy.
type Governor = governor.Governor

// Env is the node-access surface a governor sees.
type Env = governor.Env

// UPSConfig parameterises the UPScavenger baseline.
type UPSConfig = governor.UPSConfig

// UPS is the UPScavenger (SC '19) reimplementation the paper compares
// against.
type UPS = governor.UPS

// NewDefaultGovernor returns the vendor-default policy: uncore pinned
// at maximum unless the hardware TDP clamp engages.
func NewDefaultGovernor() Governor { return governor.NewDefault() }

// NewStaticGovernor pins the uncore limit at a fixed frequency (the
// Figure 2 motivation study uses the range extremes).
func NewStaticGovernor(ghz float64) Governor { return governor.NewStatic(ghz) }

// NewUPS returns the UPScavenger baseline (zero-value config selects
// the published defaults).
func NewUPS(cfg UPSConfig) *UPS { return governor.NewUPS(cfg) }

// DefaultUPSConfig returns the UPS configuration used in the paper's
// comparison.
func DefaultUPSConfig() UPSConfig { return governor.DefaultUPSConfig() }

// SystemByName maps a system name to its node preset.
func SystemByName(name string) (NodeConfig, error) { return harness.SystemByName(name) }

// GovernorByName builds a fresh governor by name (magus, ups, duf,
// default, max, min) at its default configuration; max and min pin
// cfg's uncore range extremes.
func GovernorByName(name string, cfg NodeConfig) (Governor, error) {
	return harness.GovernorByName(name, cfg)
}

// ---- Simulated systems ----

// Node is a simulated heterogeneous CPU–GPU node.
type Node = node.Node

// NodeConfig describes a node (topology, frequency ranges, calibrated
// power model, GPUs).
type NodeConfig = node.Config

// GPUSpec describes one GPU board.
type GPUSpec = node.GPUSpec

// IntelA100 returns the paper's Chameleon system: 2× Xeon Platinum
// 8380 + 1× NVIDIA A100-40GB.
func IntelA100() NodeConfig { return node.IntelA100() }

// Intel4A100 returns the multi-GPU system: 2× Xeon 8380 + 4×
// A100-80GB.
func Intel4A100() NodeConfig { return node.Intel4A100() }

// IntelMax1550 returns the Aurora base unit: 2× Xeon Max 9462 + Intel
// Data Center GPU Max 1550.
func IntelMax1550() NodeConfig { return node.IntelMax1550() }

// NewNode instantiates a simulated node.
func NewNode(cfg NodeConfig) *Node { return node.New(cfg) }

// ---- Workloads ----

// Workload is a phase program modelling one application's demand.
type Workload = workload.Program

// Phase is one execution region of a workload.
type Phase = workload.Phase

// Demand is an instantaneous resource request.
type Demand = workload.Demand

// WorkloadByName resolves a catalog application (bfs, gemm, srad,
// unet, gromacs, ...).
func WorkloadByName(name string) (*Workload, bool) { return workload.ByName(name) }

// Workloads lists all catalog application names.
func Workloads() []string { return workload.Names() }

// SingleGPUWorkloads returns the Intel+A100 evaluation set (Fig 4a).
func SingleGPUWorkloads() []string { return workload.SingleGPU() }

// AltisSYCLWorkloads returns the Intel+Max1550 set (Fig 4b).
func AltisSYCLWorkloads() []string { return workload.AltisSYCL() }

// MultiGPUWorkloads returns the Intel+4A100 set (Fig 4c).
func MultiGPUWorkloads() []string { return workload.MultiGPU() }

// IdleWorkload returns a program that idles for d (overhead studies).
func IdleWorkload(d time.Duration) *Workload { return workload.Idle(d) }

// WorkloadFromJSON decodes a user-defined workload program (see
// internal/workload/json.go for the wire format).
func WorkloadFromJSON(r io.Reader) (*Workload, error) { return workload.FromJSON(r) }

// WorkloadRunner executes a Workload against a node, publishing its
// instantaneous demand and consuming the node's served-throughput
// feedback — for manual wiring when Run's defaults don't fit (e.g.
// the HSMP path in examples/amdfabric).
type WorkloadRunner = workload.Runner

// NewWorkloadRunner binds a workload to a system with the given peak
// bandwidth; seed makes the run deterministic.
func NewWorkloadRunner(prog *Workload, sysBWGBs float64, seed int64) *WorkloadRunner {
	return workload.NewRunner(prog, sysBWGBs, seed)
}

// ---- Running experiments ----

// Options controls a single run.
type Options = harness.Options

// Result is one run's metrics.
type Result = harness.Result

// Comparison is the paper's three-metric comparison against baseline.
type Comparison = harness.Comparison

// GovernorFactory builds fresh governors for repeated runs.
type GovernorFactory = harness.GovernorFactory

// Series is a recorded time series; Recorder samples node probes.
type (
	Series   = telemetry.Series
	Recorder = telemetry.Recorder
)

// Run executes a workload on a simulated node under a governor.
func Run(cfg NodeConfig, prog *Workload, gov Governor, opt Options) (Result, error) {
	return harness.Run(cfg, prog, gov, opt)
}

// RunRepeated runs reps seeds and returns outlier-trimmed means (§6
// methodology). Repeats fan out across Options.Jobs workers; the
// aggregate is byte-identical for any jobs value.
func RunRepeated(cfg NodeConfig, prog *Workload, factory GovernorFactory, reps int, opt Options) (Result, error) {
	return harness.RunRepeated(cfg, prog, factory, reps, opt)
}

// RunSpec is one fully-described experiment cell for RunBatch.
type RunSpec = harness.RunSpec

// RunBatch executes independent cells on a bounded worker pool
// (jobs <= 0 = GOMAXPROCS), returning results in spec order —
// byte-identical to a serial sweep for any jobs value.
func RunBatch(specs []RunSpec, jobs int) ([]Result, error) {
	return harness.RunBatch(specs, jobs)
}

// RepeatSpecs expands one cell into its repeats under the evaluation's
// seed-derivation contract (Seed + i*7919, traces disabled).
func RepeatSpecs(cfg NodeConfig, prog *Workload, factory GovernorFactory, reps int, opt Options) []RunSpec {
	return harness.RepeatSpecs(cfg, prog, factory, reps, opt)
}

// Compare reduces (baseline, candidate) to performance loss, power
// saving and energy saving.
func Compare(base, x Result) Comparison { return harness.Compare(base, x) }

// BuildEnv wires a governor environment onto a node for manual
// attachment (custom governors, custom loops).
func BuildEnv(n *Node) (*Env, error) { return harness.BuildEnv(n) }

// Record is the JSON-serialisable archive form of a run's results.
type Record = harness.Record

// NewRecord converts a Result (and the seed that produced it) into a
// Record, including any traces.
func NewRecord(res Result, seed int64) Record { return harness.NewRecord(res, seed) }

// ReadRecord decodes and sanity-checks an archived run record.
func ReadRecord(r io.Reader) (Record, error) { return harness.ReadRecord(r) }
