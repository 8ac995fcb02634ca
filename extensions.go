package magus

import (
	"io"
	"time"

	"github.com/spear-repro/magus/internal/cluster"
	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/experiments"
	"github.com/spear-repro/magus/internal/faults"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/hsmp"
	"github.com/spear-repro/magus/internal/resilient"
	"github.com/spear-repro/magus/internal/sketch"
)

// This file exposes the extensions beyond the paper's evaluation:
// the ablation study of MAGUS's design choices, the model-based
// related-work comparator, the multi-node power-budget setting the
// paper motivates in §6.1, and the AMD/HSMP portability path the paper
// sketches in §6.6.

// ---- Ablation study ----

// AblationResult is the variant × application design study.
type AblationResult = experiments.AblationResult

// AblationRow is one of its cells.
type AblationRow = experiments.AblationRow

// RunAblation executes the ablation matrix (full MAGUS, detector off,
// short derivative, warm-up at max, model-based, UPS) on Intel+A100.
func RunAblation(opt ExperimentOptions) (AblationResult, error) {
	return experiments.Ablation(opt)
}

// ---- Model-based comparator (related work, §7) ----

// ModelBasedConfig parameterises the model-based uncore policy.
type ModelBasedConfig = governor.ModelBasedConfig

// ModelBased selects the minimal sufficient uncore frequency from an
// offline-profiled bandwidth model.
type ModelBased = governor.ModelBased

// NewModelBased builds the model-based policy; bwModel maps an uncore
// frequency in GHz to deliverable system bandwidth in GB/s.
func NewModelBased(cfg ModelBasedConfig, bwModel func(ghz float64) float64) *ModelBased {
	return governor.NewModelBased(cfg, bwModel)
}

// BandwidthModelFor returns the exact bandwidth model of a node preset
// — what an offline profiling pass would measure.
func BandwidthModelFor(cfg NodeConfig) func(ghz float64) float64 {
	return func(ghz float64) float64 {
		return float64(cfg.Sockets) * cfg.BWAt(ghz)
	}
}

// ---- DUF baseline (related work: André et al.) ----

// DUFConfig parameterises the DUF slowdown-budget governor.
type DUFConfig = governor.DUFConfig

// DUF is the slowdown-budget uncore baseline from André et al.
type DUF = governor.DUF

// NewDUF builds a DUF governor (zero-value config = 5 % budget).
func NewDUF(cfg DUFConfig) *DUF { return governor.NewDUF(cfg) }

// ---- Power capping (related work: Guermouche, IPDPSW '22) ----

// PowerCapped composes any governor with a RAPL PL1 package power cap.
type PowerCapped = governor.PowerCapped

// WithPowerCap wraps inner with a per-socket PL1 cap of capW watts;
// the node's RAPL clamp enforces it autonomously while inner keeps
// scaling the uncore below the cap.
func WithPowerCap(inner Governor, capW float64) *PowerCapped {
	return governor.WithPowerCap(inner, capW)
}

// ---- Cluster power budgets (§6.1) ----

// ClusterNodeSpec assigns one cluster member its hardware, workload,
// governor and seed.
type ClusterNodeSpec = cluster.NodeSpec

// ClusterResult aggregates a batch run: per-node and cluster-wide
// power traces, makespan, energy, and budget analytics.
type ClusterResult = cluster.Result

// RunCluster executes a batch of nodes in lockstep.
func RunCluster(specs []ClusterNodeSpec, sampleEvery time.Duration) (ClusterResult, error) {
	return cluster.Run(specs, sampleEvery)
}

// UniformCluster builds count identical nodes running apps round-robin
// under governors from factory (nil = vendor default). Empty apps or a
// non-positive count is an error.
func UniformCluster(cfg NodeConfig, apps []*Workload, count int, factory GovernorFactory, baseSeed int64) ([]ClusterNodeSpec, error) {
	return cluster.Uniform(cfg, apps, count, factory, baseSeed)
}

// ---- Fleet-scale sharded cluster engine ----

// ClusterOptions configures RunClusterFleet: shard count, telemetry
// retention mode, top-K member summaries and the uncore waste ledger.
type ClusterOptions = cluster.Options

// ClusterTelemetryMode selects full per-member traces or
// aggregate-only retention for large fleets.
type ClusterTelemetryMode = cluster.TelemetryMode

// Telemetry retention modes for ClusterOptions.Telemetry.
const (
	ClusterTelemetryFull      = cluster.TelemetryFull
	ClusterTelemetryAggregate = cluster.TelemetryAggregate
)

// ClusterMemberSummary is one member's per-run roll-up (the TopK
// substitute for full per-member traces at fleet scale).
type ClusterMemberSummary = cluster.MemberSummary

// RunClusterFleet executes a batch of nodes on the sharded cluster
// engine: members are partitioned into contiguous shards stepped
// concurrently, with output byte-identical to RunCluster for any
// shard count. The zero ClusterOptions reproduces RunCluster exactly.
func RunClusterFleet(specs []ClusterNodeSpec, opt ClusterOptions) (ClusterResult, error) {
	return cluster.RunFleet(specs, opt)
}

// FleetDist carries the fleet-wide telemetry distributions of a run
// with ClusterOptions.Dist set: mergeable quantile-sketch summaries
// (p50/p90/p99/max) of node power, uncore ratio, per-socket waste rate
// and attained bandwidth, merged across shards with byte-identical
// output for any shard count.
type FleetDist = cluster.FleetDist

// DistSummary is one distribution's quantile summary (count, min,
// p50/p90/p99, max, mean) as produced by the log-bucket sketch.
type DistSummary = sketch.Summary

// FleetStudyOptions sizes the fleet-scale governor study.
type FleetStudyOptions = experiments.FleetOptions

// FleetStudyResult is the per-governor fleet comparison: energy,
// peak/average power, uncore waste attribution and time over a fleet
// power budget.
type FleetStudyResult = experiments.FleetResult

// FleetStudyCell is one governor's row of the study.
type FleetStudyCell = experiments.FleetCell

// RunFleetStudy runs a mixed-preset fleet (Intel+A100, Intel+4xA100,
// Intel+Max1550 round-robin) under the vendor default, MAGUS and UPS,
// scoring each against a power budget anchored at a fraction of the
// default governor's peak.
func RunFleetStudy(opt FleetStudyOptions) (FleetStudyResult, error) {
	return experiments.FleetStudy(opt)
}

// ---- Per-socket scaling (future-work extension) ----

// PerSocket runs one MAGUS instance per CPU socket, each fed by that
// socket's own memory-controller counters — the natural refinement for
// NUMA-imbalanced workloads, where the paper's single system-wide
// signal forces the quiet socket to follow the busy one.
type PerSocket = core.PerSocket

// NewPerSocket builds the per-socket runtime; requires an Env with
// SocketPCM monitors (BuildEnv provides them).
func NewPerSocket(cfg Config) *PerSocket { return core.NewPerSocket(cfg) }

// NUMAStudyResult compares single-domain MAGUS with per-socket scaling
// on the numa_etl workload.
type NUMAStudyResult = experiments.NUMAStudyResult

// RunNUMAStudy executes the comparison on Intel+A100.
func RunNUMAStudy(opt ExperimentOptions) (NUMAStudyResult, error) {
	return experiments.NUMAStudy(opt)
}

// ---- Measurement-noise robustness ----

// NoiseStudyResult sweeps MAGUS under increasingly noisy throughput
// measurement.
type NoiseStudyResult = experiments.NoiseStudyResult

// RunNoiseStudy executes the robustness sweep on one application.
func RunNoiseStudy(app string, opt ExperimentOptions) (NoiseStudyResult, error) {
	return experiments.NoiseStudy(app, opt)
}

// ---- AMD / HSMP portability (§6.6) ----

// HSMPMailbox is the simulated AMD Host System Management Port: DF
// P-state control and bandwidth/power telemetry over a node.
type HSMPMailbox = hsmp.Mailbox

// HSMPFunction identifies a mailbox message.
type HSMPFunction = hsmp.Function

// HSMP mailbox functions.
const (
	HSMPGetSocketPower  = hsmp.GetSocketPower
	HSMPGetDDRBandwidth = hsmp.GetDDRBandwidth
	HSMPSetDFPstate     = hsmp.SetDFPstate
	HSMPGetDFPstate     = hsmp.GetDFPstate
	HSMPGetFclkMclk     = hsmp.GetFclkMclk
)

// AMDEpycMI250 returns the EPYC-class heterogeneous node preset used
// by the portability demonstration.
func AMDEpycMI250() NodeConfig { return hsmp.AMDEpycMI250() }

// NewHSMPMailbox builds a mailbox over a node whose uncore plays the
// role of the Infinity Fabric.
func NewHSMPMailbox(n *Node) *HSMPMailbox { return hsmp.NewMailbox(n) }

// BuildHSMPEnv wires a governor environment whose frequency control
// goes through the HSMP adapter (four discrete DF P-states) — the
// unmodified MAGUS runtime attaches to it directly.
func BuildHSMPEnv(n *Node, mb *HSMPMailbox) *Env { return hsmp.BuildEnv(n, mb) }

// ---- Fault injection & graceful degradation ----

// FaultPlan is a deterministic, seeded fault schedule armed against
// the node's telemetry devices via Options.Faults.
type FaultPlan = faults.Plan

// Fault is one entry of a plan: a fault class (error, stall, stale,
// wild, loss) against one telemetry target (pcm, msr, rapl)
// over an onset/duration window at a given rate.
type Fault = faults.Fault

// FaultTally counts the injections that actually fired during a run.
type FaultTally = faults.Tally

// ErrFaultInjected is the sentinel wrapped by every injected device
// error.
var ErrFaultInjected = faults.ErrInjected

// SensorHealth is the per-sensor degradation state the runtime tracks:
// healthy → degraded (missed samples) → lost (sustained outage).
type SensorHealth = resilient.Health

// Sensor health states.
const (
	SensorHealthy  = resilient.Healthy
	SensorDegraded = resilient.Degraded
	SensorLost     = resilient.Lost
)

// ResilienceConfig tunes the runtime's sensor-read hardening (retry
// budget, backoff, read timeout, staleness and plausibility guards).
// The zero value selects the defaults; it is embedded in Config.
type ResilienceConfig = resilient.Config

// LoadFaultPlan resolves a preset name or a plan JSON file path.
func LoadFaultPlan(spec string) (*FaultPlan, error) { return faults.Load(spec) }

// ParseFaultPlan decodes and validates a plan from JSON.
func ParseFaultPlan(r io.Reader) (*FaultPlan, error) { return faults.Parse(r) }

// FaultPresets lists the built-in fault plans (sorted).
func FaultPresets() []string { return faults.PresetNames() }

// FaultPreset returns a copy of the named built-in plan.
func FaultPreset(name string) (*FaultPlan, bool) { return faults.Preset(name) }

// FaultSweepResult is the per-plan robustness sweep.
type FaultSweepResult = experiments.FaultSweepResult

// FaultPoint is one of its rows.
type FaultPoint = experiments.FaultPoint

// RunFaultSweep runs MAGUS on app under each named fault plan
// (empty = every preset) and compares against the clean run and the
// vendor-default baseline.
func RunFaultSweep(app string, plans []string, opt ExperimentOptions) (FaultSweepResult, error) {
	return experiments.FaultSweep(app, plans, opt)
}

// ---- Governor tournament (fork-from-prefix checkpoint sharing) ----

// TournamentOptions selects the tournament grid: systems × apps ×
// fault presets, with a bracket of MAGUS parameter variants.
type TournamentOptions = experiments.TournamentOptions

// TournamentEntry is one MAGUS parameter variant in the bracket.
type TournamentEntry = experiments.TournamentEntry

// TournamentResult is the tournament grid in canonical order.
type TournamentResult = experiments.TournamentResult

// TournamentCell is one entry's outcome in one grid cell.
type TournamentCell = experiments.TournamentCell

// DefaultTournamentVariants returns the stock parameter bracket.
func DefaultTournamentVariants() []TournamentEntry {
	return experiments.DefaultTournamentVariants()
}

// RunTournament races the vendor default, UPS, DUF, base MAGUS and
// each MAGUS parameter variant in every grid cell, reporting per-entry
// power-waste attribution. Unless opt.Scratch is set, MAGUS variants
// resume from a checkpoint of the base run taken just before their
// first divergent decision cycle instead of re-executing the shared
// prefix; the output is byte-identical either way (see
// docs/CHECKPOINT.md).
func RunTournament(opt TournamentOptions) (TournamentResult, error) {
	return experiments.Tournament(opt)
}
