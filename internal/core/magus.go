// Package core implements MAGUS, the paper's primary contribution: a
// model-free, lightweight, user-transparent runtime that scales the CPU
// uncore frequency on heterogeneous CPU–GPU nodes using a single
// hardware signal — system memory throughput — and the concept of
// *memory dynamics* (§3):
//
//   - Algorithm 1 (memory-throughput trend prediction): the first
//     derivative of the recent throughput history signals imminent
//     sharp rises (scale the uncore to max) or falls (scale to min).
//   - Algorithm 2 (high-frequency detection): the rate of recent tuning
//     decisions; above a threshold the workload is fluctuating too fast
//     for scaling to help, so the uncore is pinned at max.
//   - Algorithm 3 (MDFS): the 0.2 s decision loop combining both, with
//     a 10-cycle warm-up during which throughput history accumulates
//     and no tuning happens.
//
// Interpretation notes (the paper's pseudocode is underspecified in
// three places; each choice is documented in DESIGN.md):
//
//   - Units: the paper's thresholds (inc 200 / dec 500) carry no units;
//     this reproduction uses GB/s of throughput change per monitoring
//     interval and defaults to 6/15 — the same 2:5 asymmetry (falls
//     must be steeper than rises), rescaled above the simulated node's
//     measurement-noise floor.
//   - Derivative span: Algorithm 1 writes (ls[n]-ls[0])/L over the full
//     window; taken literally every transition stays "sharp" for ten
//     cycles and the event log saturates into a permanent high-
//     frequency pin. We expose the span as DerivLen (default 3
//     intervals ≈ 1 s) — long enough that a transition which happened
//     during the warm-up blackout is still caught afterwards.
//   - Tune events: uncore_tune_ls records "whether a potential uncore
//     frequency scaling event should occur". We log 1 on a trend
//     *edge* — a non-flat prediction that differs from the previous
//     cycle's prediction — not on every repeated up/up or down/down
//     trend, which cannot scale anything further. Edges are logged
//     regardless of high-frequency overrides, as §3.2 requires, so
//     the detector stays engaged for as long as a flutter lasts.
package core

import (
	"fmt"
	"time"

	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/resilient"
	"github.com/spear-repro/magus/internal/ring"
)

// Config holds MAGUS's tuning knobs (§3.3).
type Config struct {
	// IncThresholdGBs triggers an uncore increase when the throughput
	// derivative exceeds it (GB/s per monitoring interval).
	IncThresholdGBs float64
	// DecThresholdGBs (a positive magnitude) triggers a decrease when
	// the derivative falls below its negation.
	DecThresholdGBs float64
	// HighFreqThreshold is the tuning-event rate above which the
	// workload counts as high-frequency and the uncore pins at max.
	HighFreqThreshold float64

	// Window is the FIFO history length for both mem_throughput_ls and
	// uncore_tune_ls (10 in the paper).
	Window int
	// DerivLen is how many intervals back the first derivative spans.
	DerivLen int

	// Interval is the sleep between decision cycles; InvocationTime is
	// the cost of one cycle (one PCM read + the algorithms ≈ 0.1 s,
	// §6.5). Effective decision period = sum (0.3 s).
	Interval       time.Duration
	InvocationTime time.Duration

	// WarmupCycles is the number of initial monitoring cycles during
	// which MAGUS only collects history (10 cycles = 2.0 s, §3.3).
	WarmupCycles int
	// WarmupAtMax selects the uncore limit during warm-up. The paper is
	// ambiguous: §3.3 says the frequency starts at maximum, while the
	// Table 1 discussion attributes missed early bursts to MAGUS "not
	// yet scaling" on nodes that idle at the minimum (§4). The default
	// (false) follows the Table 1 reading: warm-up runs at the idle
	// minimum and MDFS's first decision raises the limit to max.
	WarmupAtMax bool

	// Overhead model: cores busy during an invocation and extra watts
	// while busy. MAGUS's single PCM read is cheap (§6.5).
	BusyCores  float64
	ExtraWatts float64

	// DisableHighFreq switches off the Algorithm 2 override (tune
	// events are still logged). Ablation-study switch only; the
	// default runtime always runs with the detector on.
	DisableHighFreq bool

	// Resilience tunes the sensor fault-handling layer (retry budget,
	// read timeout, loss threshold). The zero value selects
	// resilient.DefaultConfig, which is a pure pass-through on a
	// healthy sensor.
	Resilience resilient.Config
}

// DefaultConfig returns the recommended defaults (§3.3, rescaled).
func DefaultConfig() Config {
	return Config{
		IncThresholdGBs:   6,
		DecThresholdGBs:   15,
		HighFreqThreshold: 0.4,
		Window:            10,
		DerivLen:          3,
		Interval:          200 * time.Millisecond,
		InvocationTime:    100 * time.Millisecond,
		WarmupCycles:      10,
		BusyCores:         0.3,
		ExtraWatts:        0.5,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.IncThresholdGBs <= 0 || c.DecThresholdGBs <= 0:
		return fmt.Errorf("magus: non-positive thresholds %v/%v", c.IncThresholdGBs, c.DecThresholdGBs)
	case c.HighFreqThreshold <= 0 || c.HighFreqThreshold > 1:
		return fmt.Errorf("magus: high-frequency threshold %v outside (0,1]", c.HighFreqThreshold)
	case c.Window < 2:
		return fmt.Errorf("magus: window %d too small", c.Window)
	case c.DerivLen < 1 || c.DerivLen >= c.Window:
		return fmt.Errorf("magus: derivative length %d outside [1,window)", c.DerivLen)
	case c.Interval <= 0 || c.InvocationTime <= 0:
		return fmt.Errorf("magus: non-positive timing %v/%v", c.Interval, c.InvocationTime)
	case c.WarmupCycles <= 0:
		return fmt.Errorf("magus: non-positive warmup %d", c.WarmupCycles)
	case c.BusyCores < 0 || c.ExtraWatts < 0:
		return fmt.Errorf("magus: negative overhead model")
	}
	return nil
}

// Trend is the prediction outcome of Algorithm 1.
type Trend int

const (
	// TrendDown predicts a sharp demand decrease (-1 in the paper).
	TrendDown Trend = -1
	// TrendFlat predicts no significant change (0).
	TrendFlat Trend = 0
	// TrendUp predicts a sharp demand increase (+1).
	TrendUp Trend = 1
)

// String implements fmt.Stringer.
func (t Trend) String() string {
	switch t {
	case TrendDown:
		return "down"
	case TrendUp:
		return "up"
	default:
		return "flat"
	}
}

// predictTrendRing is Algorithm 1: the first derivative of the
// throughput history, thresholded. The derivative is evaluated over
// spans from one up to derivLen intervals and the *shortest significant
// span wins*: the one-interval derivative reacts first to sharp jumps
// (so a burst ending right after a burst starting is never masked by
// stale history), while the longer spans keep a transition visible for
// derivLen cycles — a fall that lands during the warm-up blackout is
// still caught by the first real decision. It returns TrendFlat when
// the history has fewer than two samples.
//
// It reads the ring in place, with no Snapshot copy. The slice-form
// reference PredictTrend (reference_test.go) is pinned equal to it by
// TestTrendRingMatchesSlice.
func predictTrendRing(hist *ring.Buffer[float64], derivLen int, incGBs, decGBs float64) Trend {
	n := hist.Len() - 1
	if n < 1 {
		return TrendFlat
	}
	if derivLen > n {
		derivLen = n
	}
	newest := hist.At(n)
	for span := 1; span <= derivLen; span++ {
		d := (newest - hist.At(n-span)) / float64(span)
		switch {
		case d > incGBs:
			return TrendUp
		case d < -decGBs:
			return TrendDown
		}
	}
	return TrendFlat
}

// Decision describes one MDFS cycle's outcome, for tracing and tests.
type Decision struct {
	At            time.Duration
	ThroughputGBs float64
	Trend         Trend
	HighFreq      bool
	Warmup        bool
	// TargetGHz is the uncore limit in force after the cycle; PrevGHz
	// is the limit that was in force before it (chosen vs previous).
	TargetGHz float64
	PrevGHz   float64
	// Acted reports whether an MSR write happened this cycle.
	Acted bool
	// Missed marks a cycle that produced no usable throughput sample:
	// the runtime held its last decision (or pinned to max) instead of
	// feeding garbage into the trend window.
	Missed bool
	// SensorHealth is the throughput sensor's state after the cycle.
	SensorHealth resilient.Health
	// DerivGBs is the one-interval throughput derivative Algorithm 1
	// reacts to first (GB/s per monitoring interval); RingFill is how
	// many samples the trend window held when the cycle decided.
	DerivGBs float64
	RingFill int
	// Reason names the decision cause for causality tracing: one of
	// the Reason* constants below.
	Reason string
}

// Outcome names what the cycle did: "missed" (no usable sample),
// "warmup" (monitoring only), "acted" (an MSR write) or "hold".
func (d Decision) Outcome() string {
	switch {
	case d.Missed:
		return "missed"
	case d.Warmup:
		return "warmup"
	case d.Acted:
		return "acted"
	default:
		return "hold"
	}
}

// Decision reasons: why a cycle chose its uncore target.
const (
	// ReasonWarmup: pure monitoring, no tuning yet (§3.3).
	ReasonWarmup = "warmup"
	// ReasonWarmupExit: the last warm-up cycle raising the limit to max.
	ReasonWarmupExit = "warmup-exit-max"
	// ReasonHighFreqPin: Algorithm 2 classified the workload as
	// high-frequency and pinned the uncore at max.
	ReasonHighFreqPin = "high-freq-pin"
	// ReasonTrendUp / ReasonTrendDown: Algorithm 1 executed a scaling
	// decision in the predicted direction.
	ReasonTrendUp   = "trend-up"
	ReasonTrendDown = "trend-down"
	// ReasonFlatHold: no significant trend; the previous limit holds.
	ReasonFlatHold = "flat-hold"
	// ReasonHoldDegraded: missed sample on a degraded sensor — the
	// fail-safe held the last decision rather than feed garbage into
	// the trend window.
	ReasonHoldDegraded = "hold-degraded"
	// ReasonPinLost: the sensor is lost; vendor-default pin at max.
	ReasonPinLost = "pin-lost"
	// ReasonPinWarmupBlind: missed sample during warm-up with no prior
	// decision to hold — pin at max.
	ReasonPinWarmupBlind = "pin-warmup-blind"
)

// Stats aggregates runtime counters for Table 2 / §6.3, plus the
// fault-handling counters of the resilient sensor layer.
type Stats struct {
	Invocations  uint64
	TuneEvents   uint64 // prediction-phase decisions logged (1s pushed)
	Overrides    uint64 // decisions suppressed by high-frequency status
	MSRWrites    uint64
	WarmupCycles uint64

	// MissedSamples counts decision cycles with no usable throughput
	// sample; SensorRetries/SensorTimeouts/WildSamples/StaleSamples
	// break down why reads were re-attempted or rejected.
	MissedSamples  uint64
	SensorRetries  uint64
	SensorTimeouts uint64
	WildSamples    uint64
	StaleSamples   uint64
	// DegradedCycles and LostCycles count missed cycles spent in each
	// health state; Recoveries counts returns to a healthy sensor.
	DegradedCycles uint64
	LostCycles     uint64
	Recoveries     uint64
	// WatchdogOverruns counts cycles whose sensor access latency
	// exceeded the nominal sleep interval — the loop ran late.
	WatchdogOverruns uint64
}

// mdfs is the MDFS automaton (Algorithm 3): the per-cycle state and
// transition shared by the live runtime and the tournament's replay.
// A nil env is a replay: no MSR write happens and every write is
// assumed to succeed.
type mdfs struct {
	cfg            Config
	env            *governor.Env
	minGHz, maxGHz float64

	memHist *ring.Buffer[float64]
	tuneLog *ring.Buffer[int]
	// tuneCount is the number of non-zero entries currently in tuneLog,
	// maintained incrementally by pushTune so the Algorithm 2 check
	// never rescans the log.
	tuneCount int

	warmupLeft int
	highFreq   bool
	targetGHz  float64
	// lastTrend is the previous cycle's prediction; a differing
	// non-flat prediction is a tune event (trend edge), logged even
	// while the high-frequency override is pinning the uncore (§3.2).
	lastTrend Trend

	stats Stats
}

// start puts the automaton in its attach-time state on an uncore range:
// empty history, uncore_tune_ls initialised to Window zeros (§3.3), a
// full warm-up ahead, and the warm-up uncore limit as the target.
func (a *mdfs) start(minGHz, maxGHz float64) {
	a.minGHz, a.maxGHz = minGHz, maxGHz
	a.memHist = ring.New[float64](a.cfg.Window)
	a.tuneLog = ring.Filled(a.cfg.Window, 0)
	a.restartWarmup()
	a.stats = Stats{}
	a.targetGHz = minGHz
	if a.cfg.WarmupAtMax {
		a.targetGHz = maxGHz
	}
}

// cycle advances the automaton by one decision cycle and returns the
// decision it implies, with At and SensorHealth left zero.
func (a *mdfs) cycle(in ReplayInput) Decision {
	if in.Missed {
		return a.missedSample(in.Lost)
	}
	if in.Recovered {
		// The sensor returned after a full outage: the trend window and
		// tune log hold pre-outage state that no longer describes the
		// workload. Re-enter warm-up (uncore stays pinned at max until
		// it completes, so recovery never costs performance).
		a.restartWarmup()
	}
	thr := in.ThroughputGBs
	prevGHz := a.targetGHz
	a.memHist.Push(thr)
	deriv := a.deriv1()

	if a.warmupLeft > 0 {
		a.warmupLeft--
		a.stats.WarmupCycles++
		a.pushTune(0)
		reason := ReasonWarmup
		if a.warmupLeft == 0 {
			// Warm-up complete: start from peak uncore performance so
			// rapidly rising demand is never starved at kick-off (§3.3).
			a.setUncore(a.maxGHz)
			a.lastTrend = TrendUp
			reason = ReasonWarmupExit
		}
		return Decision{
			ThroughputGBs: thr, Warmup: true, TargetGHz: a.targetGHz,
			PrevGHz: prevGHz, DerivGBs: deriv, RingFill: a.memHist.Len(), Reason: reason,
		}
	}

	// Phase 2 first (Algorithm 3 lines 9–15): the high-frequency state
	// is computed from the log of *previous* cycles' decisions — the
	// rolling non-zero count of Algorithm 2, whose slice-form oracle
	// HighFrequency lives in reference_test.go.
	hi := !a.cfg.DisableHighFreq &&
		float64(a.tuneCount)/float64(a.tuneLog.Len()) >= a.cfg.HighFreqThreshold
	a.highFreq = hi
	acted := false
	if hi {
		acted = a.setUncore(a.maxGHz)
	}

	// Phase 1 (lines 16–30): predict, log the potential tuning event
	// (a flip of the prediction's requested level), and execute it only
	// when not in a high-frequency state.
	trend := predictTrendRing(a.memHist, a.cfg.DerivLen, a.cfg.IncThresholdGBs, a.cfg.DecThresholdGBs)
	if trend != TrendFlat {
		if trend != a.lastTrend {
			a.pushTune(1)
			a.stats.TuneEvents++
			if hi {
				a.stats.Overrides++
			}
		} else {
			a.pushTune(0)
		}
		a.lastTrend = trend
		if !hi {
			level := a.maxGHz
			if trend == TrendDown {
				level = a.minGHz
			}
			acted = a.setUncore(level) || acted
		}
	} else {
		a.pushTune(0)
	}

	reason := ReasonFlatHold
	switch {
	case hi:
		reason = ReasonHighFreqPin
	case trend == TrendUp:
		reason = ReasonTrendUp
	case trend == TrendDown:
		reason = ReasonTrendDown
	}
	return Decision{
		ThroughputGBs: thr, Trend: trend, HighFreq: hi,
		TargetGHz: a.targetGHz, Acted: acted,
		PrevGHz: prevGHz, DerivGBs: deriv, RingFill: a.memHist.Len(), Reason: reason,
	}
}

// missedSample is the fail-safe arm of Algorithm 3: the cycle produced
// no usable throughput sample. While merely degraded, hold the last
// uncore decision and skip the derivative update — one dropped sample
// must not feed garbage into the trend window. Once the sensor is lost
// (or the runtime is still blind in warm-up, with no decision to hold),
// degrade to vendor-default behaviour: pin the uncore at max so
// performance is never sacrificed to a blind policy.
func (a *mdfs) missedSample(lost bool) Decision {
	inWarmup := a.warmupLeft > 0
	prevGHz := a.targetGHz
	acted := false
	reason := ReasonHoldDegraded
	if inWarmup || lost {
		acted = a.setUncore(a.maxGHz)
		reason = ReasonPinLost
		if inWarmup {
			reason = ReasonPinWarmupBlind
		}
	}
	return Decision{
		Warmup: inWarmup, TargetGHz: a.targetGHz, Acted: acted, Missed: true,
		PrevGHz: prevGHz, RingFill: a.memHist.Len(), Reason: reason,
	}
}

// restartWarmup re-enters the warm-up monitoring phase with clean
// history, as on Attach.
func (a *mdfs) restartWarmup() {
	a.warmupLeft = a.cfg.WarmupCycles
	a.memHist.Reset()
	a.tuneLog.Fill(0)
	a.tuneCount = 0
	a.lastTrend = TrendFlat
	a.highFreq = false
}

// deriv1 returns the one-interval first derivative of the throughput
// history (the span Algorithm 1 reacts to first), 0 with < 2 samples.
func (a *mdfs) deriv1() float64 {
	n := a.memHist.Len() - 1
	if n < 1 {
		return 0
	}
	return a.memHist.At(n) - a.memHist.At(n-1)
}

// pushTune records one cycle's tune-event bit and keeps the rolling
// non-zero count in sync with what enters and leaves the log.
func (a *mdfs) pushTune(v int) {
	evicted, wasFull := a.tuneLog.Push(v)
	if wasFull && evicted != 0 {
		a.tuneCount--
	}
	if v != 0 {
		a.tuneCount++
	}
}

// setUncore writes the limit if it differs from the current target and
// reports whether a write happened. Without an env (a replay) the write
// is assumed to succeed.
func (a *mdfs) setUncore(ghz float64) bool {
	if ghz == a.targetGHz {
		return false
	}
	if a.env != nil {
		if err := a.env.SetUncoreMax(ghz); err != nil {
			return false
		}
		a.stats.MSRWrites += uint64(a.env.Sockets)
	}
	a.targetGHz = ghz
	return true
}

// sameState reports whether two automata hold exactly the same state:
// history, tune log, warm-up position, trend memory and uncore target.
func (a *mdfs) sameState(o *mdfs) bool {
	if a.warmupLeft != o.warmupLeft || a.highFreq != o.highFreq ||
		a.targetGHz != o.targetGHz || a.lastTrend != o.lastTrend ||
		a.tuneCount != o.tuneCount ||
		a.memHist.Len() != o.memHist.Len() || a.tuneLog.Len() != o.tuneLog.Len() {
		return false
	}
	for i := 0; i < a.memHist.Len(); i++ {
		if a.memHist.At(i) != o.memHist.At(i) {
			return false
		}
	}
	for i := 0; i < a.tuneLog.Len(); i++ {
		if a.tuneLog.At(i) != o.tuneLog.At(i) {
			return false
		}
	}
	return true
}

// MAGUS is the runtime. Create with New, bind with Attach, then let the
// harness call Invoke on the decision schedule.
type MAGUS struct {
	mdfs

	// sensor is the resilient read path over env.PCM: bounded retry,
	// virtual-clock timeouts, wild/stale rejection and health tracking.
	sensor *resilient.MemSensor

	onDecision []func(Decision)
}

// New returns a MAGUS runtime with cfg.
func New(cfg Config) *MAGUS {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &MAGUS{mdfs: mdfs{cfg: cfg}}
}

// Name implements governor.Governor.
func (*MAGUS) Name() string { return "magus" }

// Interval implements governor.Governor: the effective decision period
// (invocation + sleep).
func (m *MAGUS) Interval() time.Duration { return m.cfg.Interval + m.cfg.InvocationTime }

// Config returns the active configuration.
func (m *MAGUS) Config() Config { return m.cfg }

// Stats returns runtime counters, merged with the resilient sensor
// layer's fault-handling counters.
func (m *MAGUS) Stats() Stats {
	if m.sensor == nil {
		return m.stats
	}
	return m.stats.WithSensor(m.sensor.Counters())
}

// WithSensor returns s with its sensor fields set from the resilient
// sensor layer's counters.
func (s Stats) WithSensor(c resilient.Counters) Stats {
	s.MissedSamples = c.Misses
	s.SensorRetries = c.Retries
	s.SensorTimeouts = c.Timeouts
	s.WildSamples = c.WildDrops
	s.StaleSamples = c.StaleDrops
	s.DegradedCycles = c.DegradedCycles
	s.LostCycles = c.LostCycles
	s.Recoveries = c.Recoveries
	return s
}

// SensorHealth reports the throughput sensor's current state.
func (m *MAGUS) SensorHealth() resilient.Health {
	if m.sensor == nil {
		return resilient.Healthy
	}
	return m.sensor.Health()
}

// OnDecision adds a per-cycle trace hook; hooks run in installation
// order (a verbose CLI stream and a metrics observer can coexist).
// Passing nil clears every installed hook.
func (m *MAGUS) OnDecision(fn func(Decision)) {
	if fn == nil {
		m.onDecision = nil
		return
	}
	m.onDecision = append(m.onDecision, fn)
}

// Attach implements governor.Governor. Per §4, nodes idle with the
// uncore at its minimum; MAGUS begins its warm-up when the application
// arrives.
func (m *MAGUS) Attach(env *governor.Env) error {
	if err := env.Validate(); err != nil {
		return err
	}
	if env.PCM == nil {
		return fmt.Errorf("magus: env without PCM monitor")
	}
	m.env = env
	m.sensor = resilient.NewMemSensor(env.PCM, m.cfg.Resilience)
	m.start(env.UncoreMinGHz, env.UncoreMaxGHz)
	if err := env.SetUncoreMax(m.targetGHz); err != nil {
		return err
	}
	m.stats.MSRWrites += uint64(env.Sockets)
	return nil
}

// Invoke implements governor.Governor: one MDFS cycle (Algorithm 3),
// fronted by the resilient sensor layer's fail-safe policy.
func (m *MAGUS) Invoke(now time.Duration) time.Duration {
	m.stats.Invocations++
	if m.env.Charge != nil {
		m.env.Charge(m.cfg.InvocationTime, m.cfg.BusyCores, m.cfg.ExtraWatts)
	}

	r := m.sensor.Read(now)
	if r.Latency > m.cfg.Interval {
		// Watchdog: retries/stalls ate more than the whole sleep
		// budget, so this cycle finishes after its successor was due.
		m.stats.WatchdogOverruns++
	}
	in := ReplayInput{ThroughputGBs: r.GBs, Recovered: r.RecoveredFromLost}
	if !r.OK {
		in = ReplayInput{Missed: true, Lost: r.Health == resilient.Lost}
	}
	d := m.cycle(in)
	d.At = now
	if !r.OK {
		d.SensorHealth = r.Health
	}
	for _, fn := range m.onDecision {
		fn(d)
	}
	if d.Warmup {
		// Warm-up cycles are pure monitoring at the paper's 0.2 s
		// frequency (10 cycles = 2.0 s); full decision cycles with the
		// 0.1 s invocation window start afterwards (§3.3, §6.5).
		return m.cfg.Interval + r.Latency
	}
	if r.Latency <= 0 {
		return 0
	}
	// Extra sensor latency delays the next invocation (0 = the
	// nominal Interval()).
	return m.Interval() + r.Latency
}

// HighFreqActive reports whether the last cycle classified the workload
// as high-frequency.
func (m *MAGUS) HighFreqActive() bool { return m.highFreq }
