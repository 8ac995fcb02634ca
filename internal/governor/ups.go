package governor

import (
	"fmt"
	"time"

	"github.com/spear-repro/magus/internal/msr"
	"github.com/spear-repro/magus/internal/resilient"
)

// UPSConfig parameterises the Uncore Power Scavenger reimplementation.
// The paper compared against UPS by reimplementing it from Gholkar et
// al. (SC '19), since no open-source version exists; we do the same.
type UPSConfig struct {
	// Interval is the sleep between decision cycles; InvocationTime is
	// the cost of one cycle (per-core MSR sweeps dominate: the paper
	// measures ≈0.3 s, §6.5). The effective decision period is their
	// sum (0.5 s).
	Interval       time.Duration
	InvocationTime time.Duration

	// DramPhaseDelta is the relative DRAM-power change that signals a
	// phase transition (reset to max and re-learn).
	DramPhaseDelta float64
	// DramSmoothing is the EMA coefficient applied to DRAM power
	// before phase detection; UPS smooths its signal, which is why it
	// scavenges *through* rapidly fluctuating phases instead of
	// treating every swing as a transition (§6.2, Figure 6).
	DramSmoothing float64
	// IPCDegrade is the tolerated relative IPC drop versus the phase
	// reference before UPS backs off.
	IPCDegrade float64
	// StepGHz is the per-cycle uncore frequency step (UPS scales
	// gradually, unlike MAGUS's direct min/max jumps — §6.1).
	StepGHz float64
	// ReprobeCycles is how many in-phase cycles UPS holds a learned
	// floor before re-exploring below it (UPScavenger periodically
	// rediscovers the operating point; this is what keeps it stepping
	// down through fluctuating phases — §6.2, Figure 6).
	ReprobeCycles int

	// Overhead model: cores kept busy during an invocation and extra
	// power drawn by cross-core MSR reads (IPIs wake idle cores).
	BusyCores  float64
	ExtraWatts float64
}

// DefaultUPSConfig returns the configuration used throughout the
// evaluation.
func DefaultUPSConfig() UPSConfig {
	return UPSConfig{
		Interval:       200 * time.Millisecond,
		InvocationTime: 300 * time.Millisecond,
		DramPhaseDelta: 0.35,
		DramSmoothing:  0.35,
		IPCDegrade:     0.16,
		StepGHz:        0.1,
		ReprobeCycles:  12,
		BusyCores:      1.0,
		ExtraWatts:     2.5,
	}
}

// UPS is the Uncore Power Scavenger baseline: it watches DRAM power for
// phase transitions and per-core IPC for performance damage, stepping
// the uncore limit down within a phase and resetting to max on phase
// change or IPC degradation.
type UPS struct {
	cfg UPSConfig
	env *Env

	cur        float64 // current uncore max limit (GHz)
	smoothDram float64 // EMA-filtered DRAM power
	haveSmooth bool
	refDramW   float64 // phase-reference DRAM power
	refIPC     float64 // phase-reference IPC
	floor      float64 // lowest frequency proven safe this phase
	sinceProbe int     // cycles since the floor was last raised
	havePhase  bool
	lastInst   []uint64
	lastCyc    []uint64
	haveCtrs   bool

	// health tracks the sensing path (RAPL + per-core counter sweeps)
	// through the shared healthy → degraded → lost state machine.
	health *resilient.Tracker

	// Stats for Table 2 / §6.5.
	invocations uint64
	msrReads    uint64
	msrWrites   uint64
	phaseResets uint64
}

// NewUPS returns a UPS governor with cfg (zero value fields take
// defaults).
func NewUPS(cfg UPSConfig) *UPS {
	def := DefaultUPSConfig()
	if cfg.Interval <= 0 {
		cfg.Interval = def.Interval
	}
	if cfg.InvocationTime <= 0 {
		cfg.InvocationTime = def.InvocationTime
	}
	if cfg.DramPhaseDelta <= 0 {
		cfg.DramPhaseDelta = def.DramPhaseDelta
	}
	if cfg.DramSmoothing <= 0 || cfg.DramSmoothing > 1 {
		cfg.DramSmoothing = def.DramSmoothing
	}
	if cfg.IPCDegrade <= 0 {
		cfg.IPCDegrade = def.IPCDegrade
	}
	if cfg.StepGHz <= 0 {
		cfg.StepGHz = def.StepGHz
	}
	if cfg.ReprobeCycles <= 0 {
		cfg.ReprobeCycles = def.ReprobeCycles
	}
	if cfg.BusyCores <= 0 {
		cfg.BusyCores = def.BusyCores
	}
	if cfg.ExtraWatts < 0 {
		cfg.ExtraWatts = def.ExtraWatts
	}
	return &UPS{cfg: cfg}
}

// Name implements Governor.
func (*UPS) Name() string { return "ups" }

// Interval implements Governor.
func (u *UPS) Interval() time.Duration { return u.cfg.Interval + u.cfg.InvocationTime }

// Attach implements Governor: start at the maximum uncore frequency.
func (u *UPS) Attach(env *Env) error {
	if err := env.Validate(); err != nil {
		return err
	}
	if env.RAPL == nil {
		return fmt.Errorf("governor: UPS requires a RAPL reader")
	}
	u.env = env
	u.cur = env.UncoreMaxGHz
	u.floor = env.UncoreMinGHz
	u.havePhase = false
	u.haveCtrs = false
	u.health = resilient.NewTracker(0)
	u.lastInst = make([]uint64, env.CPUs)
	u.lastCyc = make([]uint64, env.CPUs)
	if err := env.SetUncoreMax(u.cur); err != nil {
		return err
	}
	u.msrWrites += uint64(env.Sockets)
	return nil
}

// Stats returns invocation and MSR-access counters.
func (u *UPS) Stats() (invocations, msrReads, msrWrites, phaseResets uint64) {
	return u.invocations, u.msrReads, u.msrWrites, u.phaseResets
}

// SensorHealth reports the sensing path's health state.
func (u *UPS) SensorHealth() resilient.Health { return u.health.Health() }

// Resilience returns the sensing path's miss/recovery counters.
func (u *UPS) Resilience() resilient.Counters { return u.health.Counters() }

// CurrentMaxGHz returns the uncore limit UPS last requested.
func (u *UPS) CurrentMaxGHz() float64 { return u.cur }

// Invoke implements Governor: one UPS decision cycle.
func (u *UPS) Invoke(now time.Duration) time.Duration {
	u.invocations++
	// The invocation cost is dominated by sweeping three MSRs on every
	// core; charge it regardless of the decision taken.
	u.env.charge(u.cfg.InvocationTime, u.cfg.BusyCores, u.cfg.ExtraWatts)

	sample, err := u.env.RAPL.Sample(now)
	if err != nil {
		u.miss()
		return 0
	}
	// Only feed real measurements into the filter — the first RAPL
	// sample is a zero-power baseline.
	raw := sample.TotalDramW()
	if sample.Interval > 0 {
		if !u.haveSmooth {
			u.smoothDram = raw
			u.haveSmooth = true
		} else {
			u.smoothDram += u.cfg.DramSmoothing * (raw - u.smoothDram)
		}
	}
	dramW := u.smoothDram

	ipc, ok, lost := u.readIPC()
	if lost {
		// Every core's counter read failed: this cycle sensed nothing.
		u.miss()
		return 0
	}
	u.health.Good()
	if !ok {
		// First cycle (or partial counter failure): establish baselines
		// only.
		u.refDramW = dramW
		return 0
	}

	if !u.havePhase {
		u.havePhase = true
		u.refDramW = dramW
		u.refIPC = ipc
		return 0
	}

	// Phase-transition detection on DRAM power.
	ref := u.refDramW
	if ref < 1 {
		ref = 1
	}
	if delta := abs(dramW-u.refDramW) / ref; delta > u.cfg.DramPhaseDelta {
		u.phaseResets++
		u.refDramW = dramW
		u.refIPC = ipc
		u.floor = u.env.UncoreMinGHz
		u.setUncore(u.env.UncoreMaxGHz)
		return 0
	}

	// Within a phase: scavenge downward while IPC holds; periodically
	// drop the learned floor and re-explore.
	u.sinceProbe++
	if u.sinceProbe > u.cfg.ReprobeCycles && u.floor > u.env.UncoreMinGHz {
		u.floor = u.env.UncoreMinGHz
		u.sinceProbe = 0
	}
	switch {
	case ipc < u.refIPC*(1-u.cfg.IPCDegrade):
		// Performance damage: back off one step and raise the floor so
		// we stop probing below it.
		u.floor = u.cur + u.cfg.StepGHz
		if u.floor > u.env.UncoreMaxGHz {
			u.floor = u.env.UncoreMaxGHz
		}
		u.sinceProbe = 0
		u.setUncore(u.cur + u.cfg.StepGHz)
	case u.cur-u.cfg.StepGHz >= u.floor:
		u.setUncore(u.cur - u.cfg.StepGHz)
	}
	if ipc > u.refIPC {
		u.refIPC = ipc
	}
	return 0
}

// setUncore moves the uncore limit toward ghz, counting the writes.
func (u *UPS) setUncore(ghz float64) {
	var wrote bool
	if u.cur, wrote = u.env.moveUncore(u.cur, ghz); wrote {
		u.msrWrites += uint64(u.env.Sockets)
	}
}

// miss records a cycle whose sensing path produced nothing usable. The
// current limit is held while merely degraded; on full loss UPS
// degrades to vendor-default behaviour and pins the uncore at max. The
// learned references are dropped either way — when telemetry returns,
// counter deltas would span the outage and the phase baseline may
// describe a workload that no longer exists.
func (u *UPS) miss() {
	u.haveCtrs = false
	u.haveSmooth = false
	u.havePhase = false
	if u.health.Miss() == resilient.Lost {
		u.setUncore(u.env.UncoreMaxGHz)
	}
}

// readIPC sweeps every core's fixed counters and returns the aggregate
// IPC of cores that ran since the last sweep. lost reports that every
// core's read failed — the sweep sensed nothing at all.
func (u *UPS) readIPC() (ipc float64, ok, lost bool) {
	var dInst, dCyc uint64
	okAny := false
	readAny := false
	for cpu := 0; cpu < u.env.CPUs; cpu++ {
		inst, err1 := u.env.Dev.Read(cpu, msr.FixedCtrInstRetired)
		cyc, err2 := u.env.Dev.Read(cpu, msr.FixedCtrCPUCycles)
		u.msrReads += 2
		if err1 != nil || err2 != nil {
			continue
		}
		readAny = true
		if u.haveCtrs {
			di := inst - u.lastInst[cpu]
			dc := cyc - u.lastCyc[cpu]
			if dc > 1000 { // core actually ran
				dInst += di
				dCyc += dc
				okAny = true
			}
		}
		u.lastInst[cpu] = inst
		u.lastCyc[cpu] = cyc
	}
	if !readAny {
		return 0, false, true
	}
	first := !u.haveCtrs
	u.haveCtrs = true
	if first || !okAny || dCyc == 0 {
		return 0, false, false
	}
	return float64(dInst) / float64(dCyc), true, false
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
