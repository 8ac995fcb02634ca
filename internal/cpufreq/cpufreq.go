// Package cpufreq models the hardware core-DVFS behaviour of modern
// Xeons (HWP / intel_pstate in its default autonomous mode): each core's
// frequency tracks its utilisation between the minimum and turbo
// frequencies with a short first-order response. Figure 1a of the paper
// shows exactly this — core frequencies bouncing with workload demand
// while the uncore stays pinned.
package cpufreq

import (
	"fmt"
	"time"
)

// PState is one core's autonomous frequency controller. The zero value
// is unusable; construct with New. It holds no pointers, so a node
// keeps one per core in a single slice of values.
type PState struct {
	MinGHz  float64
	BaseGHz float64
	MaxGHz  float64 // single-core turbo
	// Tau is the response time constant of frequency transitions
	// (hardware P-state transitions settle within a few ms).
	Tau time.Duration

	cur float64
}

// New returns a controller initialised at the minimum frequency. It
// panics on a frequency range that is not 0 < min <= base <= max or a
// non-positive tau.
func New(minGHz, baseGHz, maxGHz float64, tau time.Duration) PState {
	if !(0 < minGHz && minGHz <= baseGHz && baseGHz <= maxGHz) || tau <= 0 {
		panic(fmt.Sprintf("cpufreq: invalid pstate %v/%v/%v tau=%v", minGHz, baseGHz, maxGHz, tau))
	}
	return PState{MinGHz: minGHz, BaseGHz: baseGHz, MaxGHz: maxGHz, Tau: tau, cur: minGHz}
}

// Target returns the steady-state frequency for a utilisation in [0,1]:
// idle cores park at the minimum; moderately busy cores run near base;
// saturated cores take turbo.
func (p *PState) Target(util float64) float64 {
	switch {
	case util <= 0.02:
		return p.MinGHz
	case util >= 0.9:
		return p.MaxGHz
	case util <= 0.5:
		// ramp min -> base over [0, 0.5]
		return p.MinGHz + (p.BaseGHz-p.MinGHz)*(util/0.5)
	default:
		// ramp base -> max over [0.5, 0.9]
		return p.BaseGHz + (p.MaxGHz-p.BaseGHz)*((util-0.5)/0.4)
	}
}

// Step advances the controller by dt under the given utilisation and
// returns the new operating frequency in GHz.
func (p *PState) Step(util float64, dt time.Duration) float64 {
	alpha := float64(dt) / float64(p.Tau)
	if alpha > 1 {
		alpha = 1
	}
	return p.StepAlpha(util, alpha)
}

// StepAlpha is Step with the blend factor alpha = min(1, dt/Tau)
// precomputed by the caller. A node steps every core with the same dt
// and Tau, so hoisting the division out of the per-core loop removes
// one float division per core per tick without changing a bit of the
// result.
func (p *PState) StepAlpha(util, alpha float64) float64 {
	target := p.Target(util)
	p.cur += (target - p.cur) * alpha
	return p.cur
}

// Current returns the operating frequency in GHz.
func (p *PState) Current() float64 { return p.cur }

// SetCurrent overwrites the operating frequency — the checkpoint
// restore path; normal operation goes through Step.
func (p *PState) SetCurrent(ghz float64) { p.cur = ghz }

// Reset forces the controller back to the minimum frequency.
func (p *PState) Reset() { p.cur = p.MinGHz }
