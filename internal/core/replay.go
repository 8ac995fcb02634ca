// Decision replay: the runtime's own MDFS transition (MAGUS.Invoke's
// cycle) re-run over a recorded sensor-input stream with no
// environment, every uncore write assumed to succeed. The experiment
// tournament uses it to find the first cycle at which a parameter
// variant would diverge from an already-executed base run.
//
// The tournament's fork-from-prefix planner records the base run's
// Decision stream and replays it twice over the inferred inputs: once
// with the base configuration (validating the inference against what
// the real runtime actually did, cycle by cycle) and once per variant.
// Until the variant's decision or automaton state first differs from
// the base's, the variant's hypothetical run is bit-identical to the
// base run — same sensor reads at the same times, same MSR writes,
// same overhead charges — so the planner may fork it from a checkpoint
// taken just before the divergent cycle. Whenever the base replay
// itself fails validation (for example because an injected MSR-write
// fault made a write fail that the replay assumed succeeded), the
// planner forks conservatively at that cycle: the replay decides only
// *where* live execution starts, never what any run computes, so a
// modelling gap costs wall-clock, not correctness.
package core

import "github.com/spear-repro/magus/internal/resilient"

// ReplayInput is one decision cycle's sensor-layer outcome, the only
// external information the MDFS automaton consumes. It is identical
// for a base run and a parameter variant as long as both use the same
// resilience configuration and have not yet diverged, because the
// sensor and fault-injection state evolve from read times alone.
type ReplayInput struct {
	// ThroughputGBs is the sampled memory throughput (valid when the
	// cycle was not missed).
	ThroughputGBs float64
	// Missed marks a cycle with no usable sample; Lost refines it with
	// whether the sensor had been declared lost.
	Missed bool
	Lost   bool
	// Recovered marks a successful read that ended a full sensor
	// outage (Reading.RecoveredFromLost), which restarts warm-up.
	Recovered bool
}

// Replay is the runtime's own MDFS transition with no environment: no
// sensor, no MSR device, no overhead charging, and every uncore write
// assumed to succeed.
type Replay struct{ mdfs }

// NewReplay builds a replay automaton for cfg on an uncore range, in
// the same initial state Attach leaves the real runtime in.
func NewReplay(cfg Config, minGHz, maxGHz float64) *Replay {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	r := &Replay{mdfs{cfg: cfg}}
	r.start(minGHz, maxGHz)
	return r
}

// Cycle advances the automaton by one decision cycle and returns the
// decision it implies. Decision.At and Decision.SensorHealth are left
// zero: the replay has no clock and no sensor; compare against real
// decisions with SameOutcome, which ignores both.
func (r *Replay) Cycle(in ReplayInput) Decision { return r.cycle(in) }

// WarmupLeft returns the remaining warm-up cycles (input inference).
func (r *Replay) WarmupLeft() int { return r.warmupLeft }

// HistLen returns the trend window's current fill (input inference).
func (r *Replay) HistLen() int { return r.memHist.Len() }

// StateEqual reports whether two replays are in exactly the same
// automaton state. Two replays fed identical inputs stay state-equal
// until the first configuration-driven divergence.
func (r *Replay) StateEqual(o *Replay) bool { return r.sameState(&o.mdfs) }

// SameOutcome reports whether two decisions describe the same
// externally visible cycle outcome. At is ignored (replays are
// clockless); SensorHealth is ignored (sensor-layer detail, already
// folded into the inferred input).
func (d Decision) SameOutcome(o Decision) bool {
	return d.ThroughputGBs == o.ThroughputGBs &&
		d.Trend == o.Trend &&
		d.HighFreq == o.HighFreq &&
		d.Warmup == o.Warmup &&
		d.TargetGHz == o.TargetGHz &&
		d.PrevGHz == o.PrevGHz &&
		d.Acted == o.Acted &&
		d.Missed == o.Missed &&
		d.DerivGBs == o.DerivGBs &&
		d.RingFill == o.RingFill &&
		d.Reason == o.Reason
}

// InferReplayInput reconstructs the sensor-layer input behind a
// recorded decision, given the base replay's state *before* that
// cycle. Warm-up re-entry (RecoveredFromLost is not recorded directly)
// is inferred from the decision re-entering warm-up or the trend
// window restarting; an inference miss surfaces as a validation
// mismatch on a later cycle and costs a conservative fork, not
// correctness.
func InferReplayInput(d Decision, base *Replay) ReplayInput {
	if d.Missed {
		return ReplayInput{Missed: true, Lost: d.SensorHealth == resilient.Lost}
	}
	in := ReplayInput{ThroughputGBs: d.ThroughputGBs}
	if (d.Warmup && base.WarmupLeft() == 0) || (d.RingFill == 1 && base.HistLen() != 0) {
		in.Recovered = true
	}
	return in
}
