package cluster

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/spear-repro/magus/internal/faults"
	"github.com/spear-repro/magus/internal/harness"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/obs"
	"github.com/spear-repro/magus/internal/sim"
	"github.com/spear-repro/magus/internal/telemetry"
	"github.com/spear-repro/magus/internal/workload"
)

// This file retains the pre-sharding cluster implementation as a test
// oracle: every member stepped inside one sim.Engine on one goroutine,
// with one telemetry probe per member, and every member wired by hand
// rather than through harness.NewSteppable. The sharded engine
// (fleet.go) is pinned against it — the identity tests require RunFleet
// output to be byte-identical to runReference for any shard count — so
// the harness wiring of fleet members is checked against an independent
// one. It is also the "before" side of BenchmarkFleetStepsSingle.

// refMember is one member wired the legacy way.
type refMember struct {
	spec    NodeSpec
	node    *node.Node
	runner  *workload.Runner
	govName string
}

// buildRefMember wires one normalized spec by hand: node, workload
// runner, and — only when a factory is set — a fault set on the engine
// clock, an environment over the member's fault wrappers, an attached
// governor and its daemon task. A nil factory leaves the member with
// no governor at all.
func buildRefMember(spec NodeSpec, eng *sim.Engine) (*refMember, error) {
	n := node.New(spec.Config)
	runner := workload.NewRunner(spec.Workload, spec.Config.SystemBWGBs(), spec.Seed)
	runner.SetAttained(n.AttainedGBs)
	m := &refMember{spec: spec, node: n, runner: runner, govName: "default"}
	var fset *faults.Set
	if spec.Faults.Armed() {
		fset = faults.NewSet(spec.Faults, eng.Clock().Now)
	}
	if spec.Factory != nil {
		gov := spec.Factory()
		env, err := harness.BuildFaultyEnv(n, fset)
		if err != nil {
			return nil, err
		}
		if err := gov.Attach(env); err != nil {
			return nil, fmt.Errorf("cluster: %s: %w", spec.Name, err)
		}
		m.govName = gov.Name()
		eng.AddTask(&sim.Task{Name: spec.Name + "/" + gov.Name(), Interval: gov.Interval(), Fn: gov.Invoke}, 0)
	}
	return m, nil
}

// runReference executes the batch on a single engine. It mirrors
// Run/RunObserved exactly as they behaved before sharding, plus the
// shared normalize() validation (duplicate names are rejected, not
// left to the recorder's duplicate-probe panic).
func runReference(specs []NodeSpec, sampleEvery time.Duration, o *obs.Observer) (Result, error) {
	specs, sampleEvery, horizon, err := normalize(specs, sampleEvery)
	if err != nil {
		return Result{}, err
	}
	eng := sim.NewEngine(0)
	members := make([]*refMember, 0, len(specs))

	for _, spec := range specs {
		m, err := buildRefMember(spec, eng)
		if err != nil {
			return Result{}, err
		}
		members = append(members, m)

		eng.AddComponent(sim.ComponentFunc(func(now, dt time.Duration) {
			m.runner.Step(now, dt)
			m.node.SetDemand(m.runner.Demand())
		}))
		eng.AddComponent(m.node)
	}

	rec := telemetry.NewRecorder(sampleEvery)
	for _, m := range members {
		rec.Track(m.spec.Name, m.node.TotalPowerW)
	}
	rec.Track("aggregate", func() float64 {
		var p float64
		for _, m := range members {
			p += m.node.TotalPowerW()
		}
		return p
	})
	eng.AddComponent(rec)

	if o != nil {
		reg := o.Registry()
		nodeW := reg.GaugeVec("magus_cluster_node_power_watts",
			"Total power per cluster member (CPU + GPU) in watts.", "node")
		aggW := reg.Gauge("magus_cluster_power_watts", "Aggregate cluster power in watts.")
		energyG := reg.Gauge("magus_cluster_energy_joules", "Cumulative cluster energy to completion.")
		samplesC := reg.Counter("magus_cluster_observer_samples_total",
			"Observer sampling ticks; tracks the telemetry recorder's fixed sample grid.")
		doneG := reg.Gauge("magus_cluster_nodes_done", "Cluster members whose application finished.")
		reg.Gauge("magus_cluster_nodes", "Cluster member count.").Set(float64(len(members)))
		memberInfo := reg.GaugeVec("magus_cluster_member_info",
			"Static cluster membership (constant 1): one series per member with its index, node name, workload and governor.",
			"member", "node", "workload", "governor")
		gauges := make([]*obs.Gauge, len(members))
		for i, m := range members {
			gauges[i] = nodeW.With(m.spec.Name)
			memberInfo.With(strconv.Itoa(i), m.spec.Name, m.spec.Workload.Name, m.govName).Set(1)
		}
		var next time.Duration
		eng.AddComponent(sim.ComponentFunc(func(now, dt time.Duration) {
			if now < next {
				return
			}
			// Advance on the fixed grid rather than re-anchoring on the
			// observed tick (next = now + sampleEvery): if the engine
			// step does not divide sampleEvery, re-anchoring stretches
			// the cadence and the observer drifts out of alignment with
			// the telemetry recorder sampling the same interval.
			for next <= now {
				next += sampleEvery
			}
			samplesC.Inc()
			var agg, energy float64
			finished := 0
			for i, m := range members {
				p := m.node.TotalPowerW()
				gauges[i].Set(p)
				agg += p
				pkg, drm, gpu := m.node.EnergyJ()
				energy += pkg + drm + gpu
				if m.runner.Done() {
					finished++
				}
			}
			aggW.Set(agg)
			energyG.Set(energy)
			doneG.Set(float64(finished))
		}))
	}

	done := func() bool {
		for _, m := range members {
			if !m.runner.Done() {
				return false
			}
		}
		return true
	}
	// The base horizon (4× the slowest member's nominal duration +
	// 10 s) assumes no governor slows a member past 4× nominal. A
	// throttled member used to hit that wall and the batch aborted with
	// a bare horizon error — or, with the error ignored, reported a
	// silently truncated makespan. Extend the horizon adaptively up to
	// maxHorizonExtensions more base-horizon windows; a member that
	// still hasn't finished is genuinely stuck (or slowed beyond any
	// plausible governor effect), so name the stragglers explicitly.
	end, err := eng.RunUntil(done, horizon)
	for ext := 0; err != nil && errors.Is(err, sim.ErrHorizon) && ext < maxHorizonExtensions; ext++ {
		end, err = eng.RunUntil(done, horizon)
	}
	if err != nil {
		if errors.Is(err, sim.ErrHorizon) {
			var stuck []string
			for _, m := range members {
				if !m.runner.Done() {
					stuck = append(stuck, fmt.Sprintf("%s (%s on %s)",
						m.spec.Name, m.spec.Workload.Name, m.spec.Config.Name))
				}
			}
			return Result{}, fmt.Errorf(
				"cluster: members unfinished after %v (%d× the 4×-nominal horizon %v): %s",
				end, 1+maxHorizonExtensions, horizon, strings.Join(stuck, ", "))
		}
		return Result{}, fmt.Errorf("cluster: %w", err)
	}

	res := Result{
		NodePower: make(map[string]*telemetry.Series, len(members)),
		Aggregate: rec.Series("aggregate"),
		MakespanS: end.Seconds(),
	}
	for _, m := range members {
		res.NodePower[m.spec.Name] = rec.Series(m.spec.Name)
		pkg, drm, gpu := m.node.EnergyJ()
		res.EnergyJ += pkg + drm + gpu
	}
	if res.Aggregate.Len() > 0 {
		res.PeakW = res.Aggregate.Max()
		res.AvgW = res.Aggregate.Mean()
	}
	return res, nil
}
