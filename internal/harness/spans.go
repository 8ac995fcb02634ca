package harness

import (
	"time"

	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/msr"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/obs"
	"github.com/spear-repro/magus/internal/spans"
	"github.com/spear-repro/magus/internal/workload"
)

// Everything in this file is wired only when Options.Spans is set. A
// spans-disabled run gives the probe no spans sink and wraps no device
// and no task function, so the steady-state tick loop stays
// allocation-free and byte-identical (pinned by
// TestSteadyStateTickZeroAlloc and the identity goldens).

// spanMSRDevice intercepts successful uncore-limit writes and records
// them as MSR-write spans; every other access passes straight through.
type spanMSRDevice struct {
	inner msr.Device
	tr    *spans.Tracer
	now   func() time.Duration
	cps   int // cores per socket, for cpu → socket
}

func (d *spanMSRDevice) Read(cpu int, reg uint32) (uint64, error) {
	return d.inner.Read(cpu, reg)
}

func (d *spanMSRDevice) Write(cpu int, reg uint32, val uint64) error {
	err := d.inner.Write(cpu, reg, val)
	if err == nil && reg == msr.UncoreRatioLimit {
		maxHz, _ := msr.DecodeUncoreLimit(val)
		d.tr.MSRWrite(d.now(), cpu/d.cps, maxHz/1e9)
	}
	return err
}

// spanSampler is the per-step ledger integrator: it reads each
// socket's uncore state the node just computed and attributes the
// step's uncore energy, plus the workload-phase bucket under
// sample-and-hold. The probe steps it after the node.
type spanSampler struct {
	tr     *spans.Tracer
	n      *node.Node
	src    interface{ PhaseName() string }
	maxGHz float64

	lastPhase string

	// Optional metric mirrors (nil without Options.Obs).
	wasteBase, wasteUseful, wasteWaste, wasteTotal *obs.Gauge
	wasteFrac                                      *obs.Gauge
	spanCounts                                     []*obs.Gauge
}

// step integrates one engine step into the ledger.
func (ss *spanSampler) step(dt time.Duration) {
	if name := ss.src.PhaseName(); name != ss.lastPhase {
		ss.tr.SetPhase(name)
		ss.lastPhase = name
	}
	n := ss.n
	for s := 0; s < n.Config().Sockets; s++ {
		rel := n.UncoreFreqGHz(s) / ss.maxGHz
		ss.tr.AccumulateSocketActual(dt, rel, n.AttainedGBsSocket(s), n.UncorePowerW(s))
	}
	if ss.wasteTotal != nil {
		run := ss.tr.Ledger().Run()
		ss.wasteBase.Set(run.BaselineJ)
		ss.wasteUseful.Set(run.UsefulJ)
		ss.wasteWaste.Set(run.WasteJ)
		ss.wasteTotal.Set(run.TotalJ)
		ss.wasteFrac.Set(run.WasteFrac())
		for k, g := range ss.spanCounts {
			g.Set(float64(ss.tr.Count(spans.Kind(k))))
		}
	}
}

// UncorePowerModel is the spans ledger's uncore power model for a node
// configuration: the run tracer and the fleet waste ledger both
// decompose uncore watts against it.
func UncorePowerModel(cfg node.Config) spans.PowerModel {
	return spans.PowerModel{
		BaseWatts:          cfg.Uncore.BaseWatts,
		DynMaxWatts:        cfg.Uncore.DynMaxWatts,
		TrafficWattsPerGBs: cfg.Uncore.TrafficWattsPerGBs,
		PeakGBs:            cfg.BWPerSocketGBs,
		FloorFrac:          cfg.BWFloorFrac,
		RelMin:             cfg.UncoreMinGHz / cfg.UncoreMaxGHz,
	}
}

// installSpans wires Options.Spans into a run: power model, arena
// reservation, run span, the tenant split of a co-located run, the
// ledger sampler and — when an observer is also attached — the
// magus_waste_* / magus_span_* families. The caller swaps env.Dev for
// MSR-write interception.
func installSpans(opt Options, n *node.Node, src demandSource, mux *workload.Mux, wname string, gov governor.Governor, horizon time.Duration) *spanSampler {
	tr, cfg := opt.Spans, n.Config()
	tr.SetPowerModel(UncorePowerModel(cfg))
	// Arena sized from the run horizon: per tick one tick span, at
	// most one decision and Sockets MSR writes, plus the window spans
	// and the root.
	ticks := int(horizon/gov.Interval()) + 2
	tr.Reserve(ticks*(2+cfg.Sockets) + ticks/spans.DefaultWindowTicks + 16)
	tr.BeginRun(spans.Meta{
		System: cfg.Name, Workload: wname,
		Governor: gov.Name(), Seed: opt.Seed,
	})
	if mux != nil {
		// After SetPowerModel, which resets the ledger and so would drop
		// the split. The weight slice is live: the mux rewrites it each
		// step, so the ledger splits by the current memory-traffic
		// shares.
		tr.SetTenantSplit(mux.Tenants(), mux.MemWeights())
	}

	ss := &spanSampler{tr: tr, n: n, src: src, maxGHz: cfg.UncoreMaxGHz}
	if opt.Obs != nil {
		reg := opt.Obs.Registry()
		wasteVec := reg.GaugeVec("magus_waste_joules",
			"Uncore energy attribution by the spans ledger (cumulative joules).", "component")
		ss.wasteBase = wasteVec.With("baseline")
		ss.wasteUseful = wasteVec.With("useful")
		ss.wasteWaste = wasteVec.With("waste")
		ss.wasteTotal = wasteVec.With("total")
		ss.wasteFrac = reg.Gauge("magus_waste_fraction",
			"Wasted share of total uncore energy so far (0-1).")
		kindVec := reg.GaugeVec("magus_span_total",
			"Spans recorded by the decision-causality tracer, by kind.", "kind")
		for k := spans.KindRun; k <= spans.KindMSRWrite; k++ {
			ss.spanCounts = append(ss.spanCounts, kindVec.With(k.String()))
		}
	}
	return ss
}

// decide records one decision span.
func (ss *spanSampler) decide(d core.Decision) {
	ss.tr.Decision(d.At, spans.DecisionAttrs{
		ThroughputGBs: d.ThroughputGBs,
		DerivGBs:      d.DerivGBs,
		RingFill:      d.RingFill,
		Trend:         int(d.Trend),
		HighFreq:      d.HighFreq,
		Warmup:        d.Warmup,
		Missed:        d.Missed,
		Acted:         d.Acted,
		PrevGHz:       d.PrevGHz,
		TargetGHz:     d.TargetGHz,
		Reason:        d.Reason,
		Health:        d.SensorHealth.String(),
	})
}
