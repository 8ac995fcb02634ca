package harness

import (
	"strconv"
	"time"

	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/faults"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/obs"
	"github.com/spear-repro/magus/internal/resilient"
)

// DefaultObsInterval is the metrics sampling period when Options.Obs
// is set.
const DefaultObsInterval = 100 * time.Millisecond

// govCounters is the architecture-neutral snapshot of a governor's
// cumulative counters, polled on the sampling interval: the MDFS
// counters plus the two only UPS keeps.
type govCounters struct {
	core.Stats
	msrReads, phaseResets uint64
}

// counterDelta feeds the difference between successive snapshots of a
// cumulative source counter into a registry counter.
type counterDelta struct {
	dst  *obs.Counter
	read func(govCounters) uint64
	last uint64
}

func (d *counterDelta) update(c govCounters) {
	cur := d.read(c)
	if cur > d.last {
		d.dst.Add(float64(cur - d.last))
	}
	d.last = cur
}

// runObserver samples node and governor state into the registry on a
// fixed interval and emits fault/health events. The probe steps it;
// everything it does is read-only with respect to the simulation, so
// an observed run stays bit-identical to an unobserved one.
type runObserver struct {
	o      *obs.Observer
	n      *node.Node
	poll   func() govCounters // nil when the governor exposes no counters
	health bool               // the governor reports sensor health
	next   time.Duration

	steps    *obs.Counter
	simTime  *obs.Gauge
	memGBs   *obs.Gauge
	thrHist  *obs.Histogram
	nodeW    *obs.Gauge
	cpuW     *obs.Gauge
	uncore   []*obs.Gauge
	pkgW     []*obs.Gauge
	dramW    []*obs.Gauge
	gpuW     []*obs.Gauge
	gpuClk   []*obs.Gauge
	energyPk *obs.Gauge
	energyDr *obs.Gauge
	energyGp *obs.Gauge

	healthG    *obs.Gauge
	lastHealth resilient.Health
	deltas     []*counterDelta

	faultCtr  map[string]*obs.Counter // nil when no fault plan is armed
	lastTally faults.Tally

	// do receives the probe's decisions (nil when the governor exposes
	// no decision stream); the checkpoint layer captures its
	// edge-trigger state.
	do *decisionObserver
}

// installObservability wires the observer into a run: it registers
// the run's metric families, builds the sampler and — when the governor
// exposes a decision stream — its decision observer, and emits the
// run_start event.
func installObservability(opt Options, n *node.Node, gs GovernorSurfaces, govName, wname string, resuming bool) *runObserver {
	o, cfg := opt.Obs, n.Config()
	reg := o.Registry()
	reg.Counter("magus_runs_total", "Observed harness runs started.").Inc()
	reg.GaugeVec("magus_run_info", "Run identity (constant 1, labels carry the identity).",
		"system", "workload", "governor").
		With(cfg.Name, wname, govName).Set(1)

	ro := &runObserver{
		o: o, n: n, poll: gs.poll, health: gs.Health != nil,

		steps:   reg.Counter("magus_sim_steps_total", "Engine steps observed by the run."),
		simTime: reg.Gauge("magus_sim_time_seconds", "Virtual time of the run in seconds."),
		memGBs:  reg.Gauge("magus_mem_throughput_gbs", "System memory throughput in GB/s."),
		thrHist: reg.Histogram("magus_mem_throughput_distribution_gbs",
			"Distribution of sampled system memory throughput in GB/s.",
			[]float64{5, 10, 20, 40, 60, 80, 120, 160, 200, 280, 400}),
		nodeW: reg.Gauge("magus_node_power_watts", "Total node power (CPU package + DRAM + GPU boards)."),
		cpuW:  reg.Gauge("magus_cpu_power_watts", "CPU power (package + DRAM, all sockets)."),

		healthG: reg.Gauge("magus_sensor_health",
			"Governor sensing-path health (0 healthy, 1 degraded, 2 lost)."),
	}

	energyVec := reg.GaugeVec("magus_energy_joules", "Cumulative energy to solution by domain.", "domain")
	ro.energyPk, ro.energyDr, ro.energyGp = energyVec.With("pkg"), energyVec.With("dram"), energyVec.With("gpu")
	uncoreVec := reg.GaugeVec("magus_uncore_frequency_ghz", "Effective uncore frequency per socket in GHz.", "socket")
	pkgVec := reg.GaugeVec("magus_package_power_watts", "Package power per socket in watts.", "socket")
	dramVec := reg.GaugeVec("magus_dram_power_watts", "DRAM power per socket in watts.", "socket")
	for s := 0; s < cfg.Sockets; s++ {
		l := strconv.Itoa(s)
		ro.uncore = append(ro.uncore, uncoreVec.With(l))
		ro.pkgW = append(ro.pkgW, pkgVec.With(l))
		ro.dramW = append(ro.dramW, dramVec.With(l))
	}
	if n.GPUCount() > 0 {
		gw := reg.GaugeVec("magus_gpu_power_watts", "GPU board power in watts.", "gpu")
		gc := reg.GaugeVec("magus_gpu_clock_mhz", "GPU SM clock in MHz.", "gpu")
		for g := 0; g < n.GPUCount(); g++ {
			l := strconv.Itoa(g)
			ro.gpuW = append(ro.gpuW, gw.With(l))
			ro.gpuClk = append(ro.gpuClk, gc.With(l))
		}
	}

	if ro.poll != nil {
		add := func(name, help string, read func(govCounters) uint64) {
			ro.deltas = append(ro.deltas, &counterDelta{dst: reg.Counter(name, help), read: read})
		}
		add("magus_governor_invocations_total", "Governor decision cycles executed.",
			func(c govCounters) uint64 { return c.Invocations })
		add("magus_tune_events_total", "Potential uncore tuning events logged (Algorithm 1 trend edges).",
			func(c govCounters) uint64 { return c.TuneEvents })
		add("magus_highfreq_overrides_total", "Decisions suppressed by the high-frequency detector (Algorithm 2).",
			func(c govCounters) uint64 { return c.Overrides })
		add("magus_msr_reads_total", "MSR reads performed by the governor's counter sweeps.",
			func(c govCounters) uint64 { return c.msrReads })
		add("magus_msr_writes_total", "Uncore-limit MSR writes performed by the governor.",
			func(c govCounters) uint64 { return c.MSRWrites })
		add("magus_phase_resets_total", "Phase-transition resets (UPS DRAM-power detector).",
			func(c govCounters) uint64 { return c.phaseResets })
		add("magus_warmup_cycles_total", "Warm-up monitoring cycles spent collecting history.",
			func(c govCounters) uint64 { return c.WarmupCycles })
		add("magus_missed_samples_total", "Decision cycles that produced no usable sensor sample.",
			func(c govCounters) uint64 { return c.MissedSamples })
		add("magus_sensor_retries_total", "Extra sensor read attempts after transient errors.",
			func(c govCounters) uint64 { return c.SensorRetries })
		add("magus_sensor_timeouts_total", "Sensor accesses abandoned after exceeding the read timeout.",
			func(c govCounters) uint64 { return c.SensorTimeouts })
		add("magus_wild_samples_total", "Sensor readings rejected as corrupted (NaN, negative, implausible).",
			func(c govCounters) uint64 { return c.WildSamples })
		add("magus_stale_samples_total", "Sensor readings rejected as frozen.",
			func(c govCounters) uint64 { return c.StaleSamples })
		add("magus_degraded_cycles_total", "Missed cycles spent in the degraded sensor state.",
			func(c govCounters) uint64 { return c.DegradedCycles })
		add("magus_lost_cycles_total", "Missed cycles spent in the lost sensor state.",
			func(c govCounters) uint64 { return c.LostCycles })
		add("magus_sensor_recoveries_total", "Sensor transitions back to healthy after degradation or loss.",
			func(c govCounters) uint64 { return c.Recoveries })
		add("magus_watchdog_overruns_total", "Decision cycles whose sensor latency overran the sleep interval.",
			func(c govCounters) uint64 { return c.WatchdogOverruns })
	}

	if opt.Faults.Armed() {
		vec := reg.CounterVec("magus_faults_injected_total",
			"Telemetry faults fired by the armed plan, by class.", "class")
		ro.faultCtr = map[string]*obs.Counter{
			"error": vec.With("error"), "stall": vec.With("stall"),
			"stale": vec.With("stale"), "wild": vec.With("wild"), "loss": vec.With("loss"),
		}
	}
	if gs.OnDecision != nil {
		ro.do = newDecisionObserver(o)
	}

	if !resuming {
		// A resumed run continues the original's event stream; its
		// run_start was already emitted (registry values are overwritten
		// wholesale by the restore, so the counters above need no guard).
		o.Events().Event(0, "run_start").
			S("system", cfg.Name).S("workload", wname).S("governor", govName).
			F("seed", float64(opt.Seed)).
			B("faults", opt.Faults.Armed()).End()
	}
	return ro
}

// due counts one engine step and reports whether a sample is due.
func (ro *runObserver) due(now time.Duration) bool {
	ro.steps.Inc()
	if now < ro.next {
		return false
	}
	ro.next = now + DefaultObsInterval
	return true
}

// sample publishes one snapshot of node and governor state, given the
// governor's sensor health and the armed plan's fault tally.
func (ro *runObserver) sample(now time.Duration, h resilient.Health, t faults.Tally) {
	n := ro.n
	ro.simTime.Set(now.Seconds())
	thr := n.AttainedGBs()
	ro.memGBs.Set(thr)
	ro.thrHist.Observe(thr)
	ro.nodeW.Set(n.TotalPowerW())
	ro.cpuW.Set(n.CPUPowerW())
	for s, g := range ro.uncore {
		g.Set(n.UncoreFreqGHz(s))
		ro.pkgW[s].Set(n.PkgPowerW(s))
		ro.dramW[s].Set(n.DramPowerW(s))
	}
	for g := range ro.gpuW {
		ro.gpuW[g].Set(n.GPUPowerW(g))
		ro.gpuClk[g].Set(n.GPUClockMHz(g))
	}
	pkgJ, drmJ, gpuJ := n.EnergyJ()
	ro.energyPk.Set(pkgJ)
	ro.energyDr.Set(drmJ)
	ro.energyGp.Set(gpuJ)

	if ro.poll != nil {
		c := ro.poll()
		for _, d := range ro.deltas {
			d.update(c)
		}
	}
	if ro.health {
		ro.healthG.Set(float64(h))
		ro.o.SetHealth(obs.Health(h))
		if h != ro.lastHealth {
			ro.o.Events().Event(now, "health").
				S("from", ro.lastHealth.String()).S("to", h.String()).End()
			ro.lastHealth = h
		}
	}

	if ro.faultCtr != nil {
		if t != ro.lastTally {
			ro.faultCtr["error"].Add(float64(t.Errors - ro.lastTally.Errors))
			ro.faultCtr["stall"].Add(float64(t.Stalls - ro.lastTally.Stalls))
			ro.faultCtr["stale"].Add(float64(t.Stales - ro.lastTally.Stales))
			ro.faultCtr["wild"].Add(float64(t.Wilds - ro.lastTally.Wilds))
			ro.faultCtr["loss"].Add(float64(t.Losses - ro.lastTally.Losses))
			ro.o.Events().Event(now, "faults").
				U("errors", t.Errors).U("stalls", t.Stalls).U("stale", t.Stales).
				U("wild", t.Wilds).U("loss", t.Losses).U("total", t.Total()).End()
			ro.lastTally = t
		}
	}
}

// finish takes the final sample (the run may end between sampling
// ticks) and emits the run_end event.
func (ro *runObserver) finish(now time.Duration, res Result, h resilient.Health, t faults.Tally) {
	ro.sample(now, h, t)
	ro.o.Events().Event(now, "run_end").
		F("runtime_s", res.RuntimeS).
		F("pkg_j", res.PkgEnergyJ).F("dram_j", res.DramEnergyJ).F("gpu_j", res.GPUEnergyJ).
		F("avg_cpu_w", res.AvgCPUPowerW).End()
}

// Runtime phases, published as magus_runtime_phase and named in phase
// transition events.
const (
	phaseWarmup = iota
	phaseActive
	phaseHighFreq
)

func phaseName(p int) string {
	switch p {
	case phaseWarmup:
		return "warmup"
	case phaseHighFreq:
		return "highfreq"
	default:
		return "active"
	}
}

// decisionObserver translates MAGUS decision callbacks into metrics
// and events.
type decisionObserver struct {
	o *obs.Observer

	outcome map[string]*obs.Counter
	trends  map[core.Trend]*obs.Counter
	target  *obs.Gauge
	phaseG  *obs.Gauge
	period  *obs.Histogram

	havePrev   bool
	prevAt     time.Duration
	prevTrend  core.Trend
	prevPhase  int
	prevHealth resilient.Health
}

// newDecisionObserver registers the decision-level families and
// returns the hook target.
func newDecisionObserver(o *obs.Observer) *decisionObserver {
	reg := o.Registry()
	outcomeVec := reg.CounterVec("magus_decisions_total",
		"MDFS decision cycles by outcome.", "outcome")
	trendVec := reg.CounterVec("magus_trend_predictions_total",
		"Algorithm 1 trend predictions by direction.", "trend")
	return &decisionObserver{
		o: o,
		outcome: map[string]*obs.Counter{
			"warmup": outcomeVec.With("warmup"), "missed": outcomeVec.With("missed"),
			"acted": outcomeVec.With("acted"), "hold": outcomeVec.With("hold"),
		},
		trends: map[core.Trend]*obs.Counter{
			core.TrendUp: trendVec.With("up"), core.TrendDown: trendVec.With("down"),
			core.TrendFlat: trendVec.With("flat"),
		},
		target: reg.Gauge("magus_uncore_target_ghz", "Uncore limit currently requested by the runtime."),
		phaseG: reg.Gauge("magus_runtime_phase",
			"Runtime phase (0 warm-up, 1 active, 2 high-frequency pin)."),
		period: reg.Histogram("magus_decision_period_seconds",
			"Observed spacing between decision cycles in seconds.",
			[]float64{0.2, 0.25, 0.3, 0.35, 0.4, 0.5, 0.75, 1, 2}),
		prevPhase: -1,
	}
}

// observe records one decision.
func (do *decisionObserver) observe(d core.Decision) {
	do.outcome[d.Outcome()].Inc()
	do.target.Set(d.TargetGHz)

	if do.havePrev {
		do.period.Observe((d.At - do.prevAt).Seconds())
	}
	do.havePrev = true
	do.prevAt = d.At

	phase := phaseActive
	switch {
	case d.Warmup:
		phase = phaseWarmup
	case d.HighFreq:
		phase = phaseHighFreq
	}
	do.phaseG.Set(float64(phase))
	if phase != do.prevPhase {
		if do.prevPhase >= 0 {
			do.o.Events().Event(d.At, "phase").
				S("from", phaseName(do.prevPhase)).S("to", phaseName(phase)).End()
		}
		do.prevPhase = phase
	}

	if !d.Warmup && !d.Missed {
		do.trends[d.Trend].Inc()
		if d.Trend != do.prevTrend {
			do.o.Events().Event(d.At, "trend").
				S("from", do.prevTrend.String()).S("to", d.Trend.String()).End()
			do.prevTrend = d.Trend
		}
	}

	do.o.SetHealth(obs.Health(d.SensorHealth))
	if d.SensorHealth != do.prevHealth {
		do.o.Events().Event(d.At, "health").
			S("from", do.prevHealth.String()).S("to", d.SensorHealth.String()).End()
		do.prevHealth = d.SensorHealth
	}

	ev := do.o.Events().Event(d.At, "decision").
		F("mem_gbs", d.ThroughputGBs).
		S("trend", d.Trend.String()).
		F("target_ghz", d.TargetGHz).
		B("acted", d.Acted)
	if d.Warmup {
		ev = ev.B("warmup", true)
	}
	if d.HighFreq {
		ev = ev.B("highfreq", true)
	}
	if d.Missed {
		ev = ev.B("missed", true)
	}
	ev.S("health", d.SensorHealth.String()).End()
}
