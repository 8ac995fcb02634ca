// Package cluster runs several simulated nodes in lockstep under a
// shared virtual clock and aggregates their power draw — the setting
// behind the paper's §6.1 remark that reducing instantaneous power
// "helps prevent the aggregate power consumption of all applications
// from exceeding the system's total power budget if one is in place".
//
// A Spec assigns each node its hardware preset, application and
// governor; Run executes the batch to completion and returns per-node
// and aggregate power traces plus budget analytics (peak power, time
// over budget, energy, makespan).
//
// Every member is a harness run (harness.NewSteppable): the same node,
// workload runner, fault wrappers, environment and governor wiring a
// single harness.Run performs. Execution is sharded: members are
// partitioned into contiguous blocks run concurrently on the
// internal/parallel pool, each block ticking its members' runs in
// lockstep and sampling them into one arena (see fleet.go and
// docs/FLEET.md). Because members are independent — each owns its run,
// coupled only through the shared fixed-step clock — the sharded run is
// byte-identical for any shard count to the single-engine reference in
// single_test.go, which wires members by hand.
package cluster

import (
	"fmt"
	"time"

	"github.com/spear-repro/magus/internal/faults"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/harness"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/obs"
	"github.com/spear-repro/magus/internal/spans"
	"github.com/spear-repro/magus/internal/telemetry"
	"github.com/spear-repro/magus/internal/workload"
)

// maxHorizonExtensions bounds adaptive horizon growth: a batch may run
// up to (1 + maxHorizonExtensions) base horizons before unfinished
// members are reported as an error. The base horizon is already 4× the
// slowest nominal duration, so 4 windows ≈ 16× nominal — far beyond
// any slowdown a real governor can cause.
const maxHorizonExtensions = 3

// NodeSpec describes one cluster member.
type NodeSpec struct {
	Name     string
	Config   node.Config
	Workload *workload.Program
	// Factory builds the member's governor (nil = unmanaged: no
	// governor daemon, reported as "default").
	Factory harness.GovernorFactory
	Seed    int64
	// Faults arms a deterministic fault schedule against this member's
	// telemetry devices, as harness.Options.Faults does for single
	// runs (nil/empty = no injection, bit-identical to the unfaulted
	// path). Faults reach only the member's own governor: members
	// share no devices.
	Faults *faults.Plan
}

// Result is one cluster run's outcome.
type Result struct {
	// NodePower holds each member's total power trace (CPU + GPU).
	// Nil under Options.Telemetry == TelemetryAggregate.
	NodePower map[string]*telemetry.Series
	// Aggregate is the cluster-wide power trace.
	Aggregate *telemetry.Series
	// MakespanS is the time until the last application finished.
	MakespanS float64
	// EnergyJ is total cluster energy to completion.
	EnergyJ float64
	// PeakW and AvgW summarise the aggregate trace.
	PeakW, AvgW float64

	// Top ranks the heaviest members by energy-to-completion when
	// Options.TopK was set (nil otherwise).
	Top []MemberSummary `json:",omitempty"`
	// UncoreWaste is the fleet-wide uncore energy attribution
	// (baseline + useful + waste vs. the independently integrated
	// total) when Options.Waste was set; WasteBalanced reports whether
	// the decomposition balances within the integration's ulp budget.
	UncoreWaste   *spans.EnergyAttr `json:",omitempty"`
	WasteBalanced bool              `json:",omitempty"`
	// Dist is the fleet distribution snapshot (per-member node power,
	// attained throughput; per-socket uncore ratio and waste watts)
	// when Options.Dist was set. Identical for any shard count: the
	// underlying sketches merge by integer bucket addition.
	Dist *FleetDist `json:",omitempty"`
}

// MemberSummary is one member's reduced trace: the per-node numbers a
// fleet operator still wants when full 10k-member traces are switched
// off.
type MemberSummary struct {
	Index    int
	Name     string
	Workload string
	Governor string
	PeakW    float64
	AvgW     float64
	EnergyJ  float64
	// DoneS is the virtual time at which the member's application
	// finished, in seconds.
	DoneS float64
}

// TimeOverBudget returns the fraction of the makespan during which the
// aggregate power exceeded budgetW, dt-weighted under sample-and-hold:
// each sample's power is held until the next sample, and the last
// sample is held until the makespan. (An earlier version divided the
// over-budget *sample count* by the sample count, which mis-weights
// the t=0 sample and silently breaks if the recorder interval ever
// varies; weighting by actual interval length makes the fraction an
// integral over time, independent of how the trace was sampled.)
func (r Result) TimeOverBudget(budgetW float64) float64 {
	if r.Aggregate == nil || r.Aggregate.Len() == 0 || r.MakespanS <= 0 {
		return 0
	}
	times, vals := r.Aggregate.Times, r.Aggregate.Values
	var over float64
	for i, v := range vals {
		if v <= budgetW {
			continue
		}
		end := r.MakespanS
		if i+1 < len(times) {
			end = times[i+1]
		}
		if dt := end - times[i]; dt > 0 {
			over += dt
		}
	}
	if frac := over / r.MakespanS; frac < 1 {
		return frac
	}
	return 1
}

// member is one node's live state during a run.
type member struct {
	spec NodeSpec
	run  *harness.Steppable
	// govName is the attached governor's display name ("default" when
	// the member runs unmanaged, i.e. no factory).
	govName string
}

// normalize validates and canonicalises a spec list: names are
// defaulted ("node<i>") and checked unique, workloads and fault plans
// are validated, and the shared base horizon (4× the slowest nominal
// duration + 10 s) is computed. Duplicate names are a loud error: the
// name keys the telemetry series and the magus_cluster_node_power_watts
// label, and a collision used to silently alias two members' traces
// (the recorder's duplicate-probe panic was the only, accidental,
// guard).
func normalize(specs []NodeSpec, sampleEvery time.Duration) (out []NodeSpec, every, horizon time.Duration, err error) {
	if len(specs) == 0 {
		return nil, 0, 0, fmt.Errorf("cluster: empty spec list")
	}
	every = sampleEvery
	if every <= 0 {
		every = 100 * time.Millisecond
	}
	out = make([]NodeSpec, len(specs))
	seen := make(map[string]int, len(specs))
	for i, spec := range specs {
		if spec.Name == "" {
			spec.Name = fmt.Sprintf("node%d", i)
		}
		if spec.Workload == nil {
			return nil, 0, 0, fmt.Errorf("cluster: %s has no workload", spec.Name)
		}
		if j, dup := seen[spec.Name]; dup {
			return nil, 0, 0, fmt.Errorf(
				"cluster: duplicate member name %q (specs %d and %d): names key telemetry series and the magus_cluster_node_power_watts label, so duplicates would silently alias two members' traces",
				spec.Name, j, i)
		}
		seen[spec.Name] = i
		if spec.Faults.Armed() {
			if ferr := spec.Faults.Validate(); ferr != nil {
				return nil, 0, 0, fmt.Errorf("cluster: %s: faults: %w", spec.Name, ferr)
			}
		}
		if h := spec.Workload.NominalDuration()*4 + 10*time.Second; h > horizon {
			horizon = h
		}
		out[i] = spec
	}
	return out, every, horizon, nil
}

// buildMember wires one normalized spec as a harness run. A nil
// factory runs the member unmanaged.
func buildMember(spec NodeSpec) (*member, error) {
	var gov governor.Governor = governor.Unmanaged{}
	if spec.Factory != nil {
		gov = spec.Factory()
	}
	run, err := harness.NewSteppable(spec.Config, spec.Workload, gov,
		harness.Options{Seed: spec.Seed, Faults: spec.Faults})
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", spec.Name, err)
	}
	return &member{spec: spec, run: run, govName: gov.Name()}, nil
}

// Run executes the batch. All nodes share the virtual clock; each
// application starts at t=0 (a batch launched together). sampleEvery
// sets the power-trace resolution (0 = 100 ms).
func Run(specs []NodeSpec, sampleEvery time.Duration) (Result, error) {
	return RunFleet(specs, Options{SampleEvery: sampleEvery})
}

// RunObserved is Run with a metrics observer attached: per-node and
// aggregate power gauges, cumulative cluster energy, and completion
// counters are published on the sampling interval. A nil observer is
// exactly Run — observation is passive and never perturbs the batch.
func RunObserved(specs []NodeSpec, sampleEvery time.Duration, o *obs.Observer) (Result, error) {
	return RunFleet(specs, Options{SampleEvery: sampleEvery, Obs: o})
}

// Uniform builds a homogeneous spec list: count nodes of cfg, one
// workload each taken round-robin from apps, all under factory. Empty
// apps and non-positive count are rejected loudly: the former used to
// panic with an integer divide by zero at apps[i%len(apps)], and the
// latter returned an empty spec list that Run then rejected with an
// unrelated "empty spec list" error far from the mistake.
func Uniform(cfg node.Config, apps []*workload.Program, count int, factory harness.GovernorFactory, baseSeed int64) ([]NodeSpec, error) {
	if len(apps) == 0 {
		return nil, fmt.Errorf("cluster: Uniform needs at least one workload")
	}
	if count <= 0 {
		return nil, fmt.Errorf("cluster: Uniform node count %d; need at least 1", count)
	}
	for i, a := range apps {
		if a == nil {
			return nil, fmt.Errorf("cluster: Uniform workload %d is nil", i)
		}
	}
	specs := make([]NodeSpec, count)
	for i := range specs {
		specs[i] = NodeSpec{
			Name:     fmt.Sprintf("node%d", i),
			Config:   cfg,
			Workload: apps[i%len(apps)],
			Factory:  factory,
			Seed:     baseSeed + int64(i)*131,
		}
	}
	return specs, nil
}
