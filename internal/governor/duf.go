package governor

import (
	"time"

	"github.com/spear-repro/magus/internal/msr"
	"github.com/spear-repro/magus/internal/resilient"
)

// DUFConfig parameterises the DUF baseline (André, Dulong, Guermouche,
// Trahay: "DUF: Dynamic Uncore Frequency scaling to reduce power
// consumption" — the paper's reference for vendor-default uncore
// behaviour). DUF takes an explicit user slowdown budget: it steps the
// uncore down as long as the application's measured progress rate
// (aggregate instructions per second) stays within the budget of the
// phase's reference rate, and steps back up when it does not.
type DUFConfig struct {
	// MaxSlowdown is the tolerated relative IPS degradation (e.g.
	// 0.05 = 5 %), DUF's single user-facing knob.
	MaxSlowdown float64
	// StepGHz is the per-cycle frequency step.
	StepGHz float64
	// RefDecay slowly relaxes the reference IPS toward the current
	// measurement so phase changes re-baseline without explicit
	// detection (DUF re-evaluates its reference continuously).
	RefDecay float64
	// Interval / InvocationTime follow the shared decision-period
	// model; like UPS, DUF sweeps per-core counters.
	Interval       time.Duration
	InvocationTime time.Duration
	BusyCores      float64
	ExtraWatts     float64
}

// DefaultDUFConfig returns a 5 %-slowdown-budget configuration.
func DefaultDUFConfig() DUFConfig {
	return DUFConfig{
		MaxSlowdown:    0.05,
		StepGHz:        0.1,
		RefDecay:       0.02,
		Interval:       200 * time.Millisecond,
		InvocationTime: 300 * time.Millisecond,
		BusyCores:      1.0,
		ExtraWatts:     14.0,
	}
}

// DUF is the slowdown-budget uncore governor.
type DUF struct {
	cfg DUFConfig
	env *Env

	cur      float64
	refIPS   float64
	lastInst []uint64
	lastAt   time.Duration
	haveCtrs bool

	// health tracks the counter-sweep sensing path through the shared
	// healthy → degraded → lost state machine.
	health *resilient.Tracker

	invocations uint64
	msrWrites   uint64
}

// NewDUF builds a DUF governor (zero-value fields take defaults).
func NewDUF(cfg DUFConfig) *DUF {
	def := DefaultDUFConfig()
	if cfg.MaxSlowdown <= 0 {
		cfg.MaxSlowdown = def.MaxSlowdown
	}
	if cfg.StepGHz <= 0 {
		cfg.StepGHz = def.StepGHz
	}
	if cfg.RefDecay <= 0 || cfg.RefDecay > 1 {
		cfg.RefDecay = def.RefDecay
	}
	if cfg.Interval <= 0 {
		cfg.Interval = def.Interval
	}
	if cfg.InvocationTime <= 0 {
		cfg.InvocationTime = def.InvocationTime
	}
	if cfg.BusyCores <= 0 {
		cfg.BusyCores = def.BusyCores
	}
	if cfg.ExtraWatts < 0 {
		cfg.ExtraWatts = def.ExtraWatts
	}
	return &DUF{cfg: cfg}
}

// Name implements Governor.
func (*DUF) Name() string { return "duf" }

// Interval implements Governor.
func (d *DUF) Interval() time.Duration { return d.cfg.Interval + d.cfg.InvocationTime }

// CurrentMaxGHz returns the limit DUF last requested.
func (d *DUF) CurrentMaxGHz() float64 { return d.cur }

// Invocations returns the decision-cycle count.
func (d *DUF) Invocations() uint64 { return d.invocations }

// MSRWrites returns the uncore-limit MSR writes performed, one per
// socket per limit change (the attach write included).
func (d *DUF) MSRWrites() uint64 { return d.msrWrites }

// Attach implements Governor.
func (d *DUF) Attach(env *Env) error {
	if err := env.Validate(); err != nil {
		return err
	}
	d.env = env
	d.cur = env.UncoreMaxGHz
	d.refIPS = 0
	d.haveCtrs = false
	d.health = resilient.NewTracker(0)
	d.lastInst = make([]uint64, env.CPUs)
	if err := env.SetUncoreMax(d.cur); err != nil {
		return err
	}
	d.msrWrites += uint64(env.Sockets)
	return nil
}

// SensorHealth reports the sensing path's health state.
func (d *DUF) SensorHealth() resilient.Health { return d.health.Health() }

// Resilience returns the sensing path's miss/recovery counters.
func (d *DUF) Resilience() resilient.Counters { return d.health.Counters() }

// Invoke implements Governor: one DUF cycle.
func (d *DUF) Invoke(now time.Duration) time.Duration {
	d.invocations++
	d.env.charge(d.cfg.InvocationTime, d.cfg.BusyCores, d.cfg.ExtraWatts)

	ips, ok, lost := d.readIPS(now)
	if lost {
		d.miss()
		return 0
	}
	d.health.Good()
	if !ok {
		return 0
	}
	// Track the best progress rate seen, with slow decay so a new
	// phase's (lower or higher) rate re-baselines the budget.
	if ips > d.refIPS {
		d.refIPS = ips
	} else {
		d.refIPS += d.cfg.RefDecay * (ips - d.refIPS)
	}
	if d.refIPS <= 0 {
		return 0
	}
	switch {
	case ips < d.refIPS*(1-d.cfg.MaxSlowdown):
		// Budget exceeded: restore bandwidth one step at a time.
		d.set(d.cur + d.cfg.StepGHz)
	default:
		// Within budget: harvest another step.
		d.set(d.cur - d.cfg.StepGHz)
	}
	return 0
}

func (d *DUF) set(ghz float64) {
	var wrote bool
	if d.cur, wrote = d.env.moveUncore(d.cur, ghz); wrote {
		d.msrWrites += uint64(d.env.Sockets)
	}
}

// miss records a cycle whose counter sweep sensed nothing: hold the
// current limit while degraded, degrade to vendor default (pin max) on
// full loss, and drop the counter baseline so the first post-outage
// sweep re-baselines instead of computing deltas across the outage.
func (d *DUF) miss() {
	d.haveCtrs = false
	if d.health.Miss() == resilient.Lost {
		d.set(d.env.UncoreMaxGHz)
	}
}

// readIPS sweeps per-core instruction counters and returns aggregate
// instructions per second since the previous sweep. lost reports that
// every core's read failed — previously such a sweep fell through and
// returned an all-zero delta as a genuine (catastrophic) slowdown.
func (d *DUF) readIPS(now time.Duration) (ips float64, ok, lost bool) {
	var dInst uint64
	readAny := false
	for cpu := 0; cpu < d.env.CPUs; cpu++ {
		inst, err := d.env.Dev.Read(cpu, msr.FixedCtrInstRetired)
		if err != nil {
			continue
		}
		readAny = true
		if d.haveCtrs {
			dInst += inst - d.lastInst[cpu]
		}
		d.lastInst[cpu] = inst
	}
	if !readAny {
		return 0, false, true
	}
	elapsed := now - d.lastAt
	first := !d.haveCtrs
	d.haveCtrs = true
	d.lastAt = now
	if first || elapsed <= 0 {
		return 0, false, false
	}
	return float64(dInst) / elapsed.Seconds(), true, false
}
