package cluster

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/spear-repro/magus/internal/harness"
	"github.com/spear-repro/magus/internal/obs"
	"github.com/spear-repro/magus/internal/parallel"
	"github.com/spear-repro/magus/internal/sim"
	"github.com/spear-repro/magus/internal/sketch"
	"github.com/spear-repro/magus/internal/spans"
	"github.com/spear-repro/magus/internal/telemetry"
)

// The sharded cluster engine. Members are partitioned into contiguous
// blocks ("shards") run concurrently on the internal/parallel pool.
// Each member is a harness.Steppable with its own engine; a shard
// drives its block in lockstep, ticking every member's run by exactly
// one engine step per shard tick, and samples member power into a
// telemetry.Block arena instead of one Recorder probe per member.
//
// Determinism contract: members are independent (each owns its node,
// runner, governor environment and fault injectors; nothing crosses
// members except the virtual clock), so any interleaving of per-member
// step sequences is observationally identical to one shared engine's
// all-tasks-then-all-components order. Every cross-member float is
// folded in canonical member order at reassembly — the aggregate trace,
// the energy total, the observer's final gauges, the stuck-member error
// — which makes RunFleet byte-identical for any shard count to the
// hand-wired single-engine reference in single_test.go. The identity
// tests in fleet_test.go pin this.

// TelemetryMode selects how much per-member trace a run retains.
type TelemetryMode int

const (
	// TelemetryFull records one power series per member plus the
	// aggregate — the historical Run behaviour, pinned byte-identical.
	TelemetryFull TelemetryMode = iota
	// TelemetryAggregate retains only the aggregate trace (plus the
	// Options.TopK member summaries): Result.NodePower stays nil, the
	// per-member sample arenas are recycled, and an observed run skips
	// the per-member magus_cluster_node_power_watts and
	// magus_cluster_member_info series — O(1) exposition instead of
	// O(members). The aggregate is still folded per-sample in member
	// order, so it is byte-identical to the full-mode aggregate.
	TelemetryAggregate
)

// Options configures RunFleet beyond the Run/RunObserved defaults.
type Options struct {
	// SampleEvery is the power-trace resolution (0 = 100 ms).
	SampleEvery time.Duration
	// Shards is the number of contiguous member blocks stepped
	// concurrently (<= 0 = GOMAXPROCS, clamped to the member count).
	// Like the experiment pool's -jobs contract, results are
	// byte-identical for any value; shards change wall-clock only.
	Shards int
	// Obs attaches a metrics observer (see RunObserved). The sharded
	// engine publishes final gauge state at reassembly: a scrape after
	// the run sees exactly what the single-engine path exposed.
	Obs *obs.Observer
	// Telemetry selects full per-member traces (default) or
	// aggregate-only retention for large fleets.
	Telemetry TelemetryMode
	// TopK, when > 0, reports the K heaviest members by energy in
	// Result.Top — the fleet-scale substitute for full traces.
	TopK int
	// Waste enables the fleet uncore-energy ledger: every member's
	// uncore watts are decomposed (baseline/useful/waste) against the
	// spans power model each tick and integrated into
	// Result.UncoreWaste. Purely passive reads; off by default.
	Waste bool
	// Dist enables fleet distribution telemetry: per-member per-tick
	// samples (node power, attained GB/s; per-socket uncore ratio and
	// model-decomposed waste watts) fold into mergeable quantile
	// sketches (internal/sketch), reported in Result.Dist, exposed as
	// magus_fleet_* families when Obs is set, and served on /fleet.
	// Off by default; the disabled path is byte-identical to a run
	// without it, and the enabled path is byte-identical for any
	// Shards value (sketch merging is integer bucket addition).
	Dist bool
}

// shard is one contiguous member block and its sub-engine state.
type shard struct {
	members []*member
	dt      time.Duration
	dtSec   float64
	clock   time.Duration

	// Sampling grid (multiples of interval from 0, tick-start stamps —
	// exactly the telemetry.Recorder contract).
	interval time.Duration
	next     time.Duration
	block    *telemetry.Block

	// Struct-of-arrays completion state, indexed like members.
	done   []bool
	nDone  int
	doneAt []time.Duration

	// Observer mirrors captured at the most recent sample.
	observed   bool
	lastEnergy []float64
	lastDone   []bool

	// Fleet waste ledger (Options.Waste). models are also built under
	// Options.Dist alone: the waste-watts sketch needs the same
	// per-tick decomposition the ledger integrates.
	waste  bool
	models []spans.PowerModel
	attrs  []spans.EnergyAttr
	folds  [][]sockMemo // per member and socket, under Options.Waste or Options.Dist

	// Fleet distribution sketches (Options.Dist), one per dimension.
	dist     bool
	sketches [distDims]*sketch.Sketch

	stuck    bool
	buildErr error
}

// blockPool recycles sample arenas across runs (TelemetryAggregate
// only — full-mode arenas escape into the Result).
var blockPool sync.Pool

func getBlock(rows, capacity int) *telemetry.Block {
	if b, ok := blockPool.Get().(*telemetry.Block); ok {
		b.Reset(rows, capacity)
		return b
	}
	return telemetry.NewBlock(rows, capacity)
}

// newShard builds the block's members and arenas. A member build error
// is recorded, not returned: the caller scans shards in order so the
// reported error is the lowest-index member's, exactly as the serial
// reference path would fail.
func newShard(specs []NodeSpec, every time.Duration, sampleCap int, opt Options) *shard {
	sh := &shard{
		dt:       sim.DefaultStep,
		dtSec:    sim.DefaultStep.Seconds(),
		interval: every,
		done:     make([]bool, len(specs)),
		doneAt:   make([]time.Duration, len(specs)),
		observed: opt.Obs != nil,
		waste:    opt.Waste,
		dist:     opt.Dist,
	}
	if opt.Dist {
		sh.sketches = newDistSketches()
	}
	for _, spec := range specs {
		m, err := buildMember(spec)
		if err != nil {
			sh.buildErr = err
			return sh
		}
		sh.members = append(sh.members, m)
		if opt.Waste || opt.Dist {
			sh.models = append(sh.models, harness.UncorePowerModel(spec.Config))
			sh.folds = append(sh.folds, make([]sockMemo, spec.Config.Sockets))
		}
	}
	sh.block = getBlock(len(specs), sampleCap)
	if opt.Waste {
		sh.attrs = make([]spans.EnergyAttr, len(specs))
	}
	if sh.observed {
		sh.lastEnergy = make([]float64, len(specs))
		sh.lastDone = make([]bool, len(specs))
	}
	return sh
}

// tick advances the shard one engine step: every member's run takes
// exactly one step of its own engine (governor task if due, workload
// runner, demand hand-off, node), then reports whether its workload
// just finished. Finished members keep ticking; member independence
// makes this member-by-member order observationally identical to one
// shared engine's all-tasks-then-all-components sweep.
func (sh *shard) tick() {
	now, dt := sh.clock, sh.dt
	for i, m := range sh.members {
		m.run.Tick()
		if !sh.done[i] && m.run.WorkloadDone() {
			sh.done[i] = true
			sh.nDone++
			sh.doneAt[i] = now + dt
		}
	}
	if sh.waste || sh.dist {
		sh.integrate()
	}
	if now >= sh.next {
		sh.sample(now)
	}
	sh.clock = now + dt
}

// integrate runs the per-tick model decomposition shared by the waste
// ledger and the distribution sketches: per member and socket, the
// uncore operating point is decomposed (baseline/useful/waste) once,
// then the ledger accumulates it (Options.Waste) and the sketches
// fold it (Options.Dist). The ledger's float sequence is exactly the
// historical integrateWaste path — sketch folding touches only
// integer sketch state, so enabling Dist never perturbs the ledger.
//
// Decompose is a pure function of its inputs, so each member socket
// keeps its last decomposition, keyed on the exact input bits: a
// settled member repeats it tick after tick. The accumulations and the
// sketch folds still run on every tick.
func (sh *shard) integrate() {
	for i, m := range sh.members {
		n := m.run.Node()
		cfg := &m.spec.Config
		for s := 0; s < cfg.Sockets; s++ {
			rel := n.UncoreFreqGHz(s) / cfg.UncoreMaxGHz
			base, useful, waste := sh.folds[i][s].decompose(&sh.models[i], rel, n.AttainedGBsSocket(s))
			if sh.waste {
				sh.attrs[i].Accumulate(sh.dtSec, base, useful, waste, n.UncorePowerW(s))
			}
			if sh.dist {
				sh.sketches[distUncoreRatio].Add(rel)
				sh.sketches[distWasteW].Add(waste)
			}
		}
		if sh.dist {
			sh.sketches[distNodePowerW].Add(n.TotalPowerW())
			sh.sketches[distAttainedGBs].Add(n.AttainedGBs())
		}
	}
}

// sockMemo is one member socket's last decomposition, keyed on the bits
// of (rel, attained).
type sockMemo struct {
	ok                  bool
	relKey, attKey      uint64
	base, useful, waste float64
}

func (m *sockMemo) decompose(model *spans.PowerModel, rel, attained float64) (base, useful, waste float64) {
	if r, a := math.Float64bits(rel), math.Float64bits(attained); !m.ok || r != m.relKey || a != m.attKey {
		m.base, m.useful, m.waste = model.Decompose(rel, attained)
		m.ok, m.relKey, m.attKey = true, r, a
	}
	return m.base, m.useful, m.waste
}

// sample records one grid point: each member's total power into the
// arena and, for an observed run, its cumulative energy and completion.
func (sh *shard) sample(now time.Duration) {
	k := sh.block.Push(now.Seconds())
	for i, m := range sh.members {
		n := m.run.Node()
		sh.block.Set(i, k, n.TotalPowerW())
		if sh.observed {
			pkg, drm, gpu := n.EnergyJ()
			sh.lastEnergy[i] = pkg + drm + gpu
		}
	}
	if sh.observed {
		copy(sh.lastDone, sh.done)
	}
	for sh.next <= now {
		sh.next += sh.interval
	}
}

// run drives the shard until its members finish, with the engine's
// adaptive horizon-extension semantics: done is checked before the
// horizon on every iteration, each expiry re-anchors a fresh window at
// the current clock, and after 1 + maxHorizonExtensions windows the
// shard gives up with stuck members still unfinished. Window anchors
// depend only on (dt, horizon), so every shard that reaches an anchor
// reaches it at the same virtual time the single engine would.
func (sh *shard) run(horizon time.Duration) {
	end := sh.clock + horizon
	for ext := 0; ; {
		if sh.nDone == len(sh.members) {
			return
		}
		if sh.clock >= end {
			ext++
			if ext > maxHorizonExtensions {
				sh.stuck = true
				return
			}
			end = sh.clock + horizon
			continue
		}
		sh.tick()
	}
}

// extend keeps the shard ticking to the fleet-wide end time, so every
// member's node keeps integrating (idle power decay, trailing samples)
// exactly as it would inside the single engine, which only stops when
// the last member of the whole batch finishes.
func (sh *shard) extend(globalEnd time.Duration) {
	for sh.clock < globalEnd {
		sh.tick()
	}
}

// fleetObs holds the observer instruments registered for a run.
type fleetObs struct {
	gauges      []*obs.Gauge // per member (TelemetryFull only)
	agg, energy *obs.Gauge
	done        *obs.Gauge
	samples     *obs.Counter
}

// registerFleetObs mirrors the reference path's registration order and
// metadata exactly, so the post-run exposition is byte-identical. In
// TelemetryAggregate mode the O(members) families (per-member power,
// member_info) are skipped.
func registerFleetObs(o *obs.Observer, shards []*shard, mode TelemetryMode, total int) *fleetObs {
	reg := o.Registry()
	fo := &fleetObs{}
	var nodeW *obs.GaugeVec
	if mode == TelemetryFull {
		nodeW = reg.GaugeVec("magus_cluster_node_power_watts",
			"Total power per cluster member (CPU + GPU) in watts.", "node")
	}
	fo.agg = reg.Gauge("magus_cluster_power_watts", "Aggregate cluster power in watts.")
	fo.energy = reg.Gauge("magus_cluster_energy_joules", "Cumulative cluster energy to completion.")
	fo.samples = reg.Counter("magus_cluster_observer_samples_total",
		"Observer sampling ticks; tracks the telemetry recorder's fixed sample grid.")
	fo.done = reg.Gauge("magus_cluster_nodes_done", "Cluster members whose application finished.")
	reg.Gauge("magus_cluster_nodes", "Cluster member count.").Set(float64(total))
	if mode == TelemetryFull {
		memberInfo := reg.GaugeVec("magus_cluster_member_info",
			"Static cluster membership (constant 1): one series per member with its index, node name, workload and governor.",
			"member", "node", "workload", "governor")
		fo.gauges = make([]*obs.Gauge, 0, total)
		i := 0
		for _, sh := range shards {
			for _, m := range sh.members {
				fo.gauges = append(fo.gauges, nodeW.With(m.spec.Name))
				memberInfo.With(strconv.Itoa(i), m.spec.Name, m.spec.Workload.Name, m.govName).Set(1)
				i++
			}
		}
	}
	return fo
}

// RunFleet executes the batch on the sharded engine. The zero Options
// value reproduces Run exactly; see Options for the fleet-scale knobs.
func RunFleet(specs []NodeSpec, opt Options) (Result, error) {
	specs, every, horizon, err := normalize(specs, opt.SampleEvery)
	if err != nil {
		return Result{}, err
	}
	bounds := parallel.Partition(len(specs), parallel.Jobs(opt.Shards))
	nShards := len(bounds) - 1
	sampleCap := int(horizon/every) + 2

	// Build: each shard constructs its own members' runs concurrently
	// (run wiring dominates setup at fleet scale).
	shards := make([]*shard, nShards)
	if err := parallel.ForEach(nil, nShards, 0, nil, func(_ context.Context, s int) error {
		shards[s] = newShard(specs[bounds[s]:bounds[s+1]], every, sampleCap, opt)
		return nil
	}); err != nil {
		return Result{}, err
	}
	for _, sh := range shards {
		if sh.buildErr != nil {
			return Result{}, sh.buildErr
		}
	}

	var fo *fleetObs
	if opt.Obs != nil {
		fo = registerFleetObs(opt.Obs, shards, opt.Telemetry, len(specs))
	}

	// Phase 1: every shard runs until its own members finish (or it
	// exhausts the shared horizon windows).
	if err := parallel.ForEach(nil, nShards, 0, nil, func(_ context.Context, s int) error {
		shards[s].run(horizon)
		return nil
	}); err != nil {
		return Result{}, err
	}
	if anyStuck(shards) {
		return Result{}, stuckError(shards, horizon)
	}

	// Phase 2: shards that finished early keep ticking to the fleet
	// end time, as the single engine would until its last member was
	// done.
	var globalEnd time.Duration
	for _, sh := range shards {
		if sh.clock > globalEnd {
			globalEnd = sh.clock
		}
	}
	if err := parallel.ForEach(nil, nShards, 0, nil, func(_ context.Context, s int) error {
		shards[s].extend(globalEnd)
		return nil
	}); err != nil {
		return Result{}, err
	}

	return reassemble(shards, opt, fo, globalEnd)
}

func anyStuck(shards []*shard) bool {
	for _, sh := range shards {
		if sh.stuck {
			return true
		}
	}
	return false
}

// stuckError reproduces the reference path's stuck-member report: the
// unfinished members in canonical order and the shared give-up time
// (every stuck shard gives up at the same virtual clock, since window
// anchors are shard-independent).
func stuckError(shards []*shard, horizon time.Duration) error {
	var end time.Duration
	var stuck []string
	for _, sh := range shards {
		if sh.stuck && sh.clock > end {
			end = sh.clock
		}
		for i, m := range sh.members {
			if !sh.done[i] {
				stuck = append(stuck, fmt.Sprintf("%s (%s on %s)",
					m.spec.Name, m.spec.Workload.Name, m.spec.Config.Name))
			}
		}
	}
	return fmt.Errorf(
		"cluster: members unfinished after %v (%d× the 4×-nominal horizon %v): %s",
		end, 1+maxHorizonExtensions, horizon, strings.Join(stuck, ", "))
}

// reassemble folds per-shard state into the Result in canonical member
// order and publishes the observer's final gauge state.
func reassemble(shards []*shard, opt Options, fo *fleetObs, globalEnd time.Duration) (Result, error) {
	samples := shards[0].block.Len()
	total := 0
	for _, sh := range shards {
		if sh.block.Len() != samples {
			panic("cluster: shard sample grids diverged")
		}
		total += len(sh.members)
	}

	res := Result{MakespanS: globalEnd.Seconds()}

	// Aggregate trace: per-sample fold across all member rows in
	// member order — bit-identical to the reference probe that summed
	// TotalPowerW live.
	aggVals := make([]float64, samples)
	for _, sh := range shards {
		sh.block.AccumulateRows(aggVals)
	}
	aggTimes := shards[0].block.Times()
	if opt.Telemetry == TelemetryAggregate {
		// Arenas are recycled below; the aggregate axis must survive.
		aggTimes = append([]float64(nil), aggTimes...)
	}
	res.Aggregate = &telemetry.Series{Times: aggTimes, Values: aggVals}

	if opt.Telemetry == TelemetryFull {
		res.NodePower = make(map[string]*telemetry.Series, total)
		for _, sh := range shards {
			for j, m := range sh.members {
				res.NodePower[m.spec.Name] = sh.block.Series(j)
			}
		}
	}

	var summaries []MemberSummary
	if opt.TopK > 0 {
		summaries = make([]MemberSummary, 0, total)
	}
	idx := 0
	for _, sh := range shards {
		for j, m := range sh.members {
			pkg, drm, gpu := m.run.Node().EnergyJ()
			res.EnergyJ += pkg + drm + gpu
			if opt.TopK > 0 {
				row := sh.block.Series(j)
				summaries = append(summaries, MemberSummary{
					Index:    idx,
					Name:     m.spec.Name,
					Workload: m.spec.Workload.Name,
					Governor: m.govName,
					PeakW:    row.Max(),
					AvgW:     row.Mean(),
					EnergyJ:  pkg + drm + gpu,
					DoneS:    sh.doneAt[j].Seconds(),
				})
			}
			idx++
		}
	}
	if res.Aggregate.Len() > 0 {
		res.PeakW = res.Aggregate.Max()
		res.AvgW = res.Aggregate.Mean()
	}
	if opt.TopK > 0 {
		sort.SliceStable(summaries, func(a, b int) bool {
			if summaries[a].EnergyJ != summaries[b].EnergyJ {
				return summaries[a].EnergyJ > summaries[b].EnergyJ
			}
			return summaries[a].Index < summaries[b].Index
		})
		if len(summaries) > opt.TopK {
			summaries = summaries[:opt.TopK]
		}
		res.Top = summaries
	}

	if opt.Waste {
		var attr spans.EnergyAttr
		steps := 0
		ticks := int(globalEnd / shards[0].dt)
		for _, sh := range shards {
			for j := range sh.members {
				attr.Merge(sh.attrs[j])
				steps += sh.members[j].spec.Config.Sockets * ticks
			}
		}
		res.UncoreWaste = &attr
		res.WasteBalanced = attr.Balanced(spans.BalanceTolUlps(steps))
	}

	if opt.Dist {
		merged := mergeDist(shards)
		res.Dist = &FleetDist{
			NodePowerW:  merged[distNodePowerW].Summarize(),
			UncoreRatio: merged[distUncoreRatio].Summarize(),
			WasteW:      merged[distWasteW].Summarize(),
			AttainedGBs: merged[distAttainedGBs].Summarize(),
		}
		if opt.Obs != nil {
			exposeDist(opt.Obs, merged, res.Dist)
		}
	}

	if fo != nil {
		last := samples - 1
		fo.samples.Add(float64(samples))
		var energy float64
		finished := 0
		idx := 0
		for _, sh := range shards {
			for j := range sh.members {
				if fo.gauges != nil {
					fo.gauges[idx].Set(sh.block.At(j, last))
				}
				energy += sh.lastEnergy[j]
				if sh.lastDone[j] {
					finished++
				}
				idx++
			}
		}
		fo.agg.Set(aggVals[last])
		fo.energy.Set(energy)
		fo.done.Set(float64(finished))
	}

	if opt.Telemetry == TelemetryAggregate {
		for _, sh := range shards {
			blockPool.Put(sh.block)
			sh.block = nil
		}
	}
	return res, nil
}
