package harness

import (
	"time"

	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/faults"
	"github.com/spear-repro/magus/internal/flight"
	"github.com/spear-repro/magus/internal/resilient"
)

// Flight-recorder wiring. When Options.Flight is set the run records
// its recent governor decisions, sensor-health transitions and
// fault-injection tallies into the caller's bounded ring
// (internal/flight) — the always-on postmortem tail magusd serve dumps
// when a session panics, on SIGQUIT, or from GET /debug/flight.
//
// Recording is strictly passive (reads of state the simulation already
// computed) and allocation-free, so an armed run stays byte-identical
// to an unarmed one; with Options.Flight nil the probe carries no
// flight sink.

// flightObserver records sensor-health transitions and fault-tally
// changes as the probe reports them, and every decision the probe fans
// out to it.
type flightObserver struct {
	ring *flight.Ring

	lastHealth resilient.Health
	haveTally  bool
	lastTally  faults.Tally
}

// decide records one governor decision: A is the requested uncore
// target in GHz, B the sensed throughput in GB/s, C the sensor health.
func (fo *flightObserver) decide(d core.Decision) {
	fo.ring.Record(d.At.Seconds(), flight.KindDecision, d.Outcome(),
		d.TargetGHz, d.ThroughputGBs, float64(d.SensorHealth))
}

// step records a sensor-health transition (A=from, B=to) or a
// fault-tally change (A=total injected) as it happens. A governor that
// reports no health and a run with no plan hand in constant zero
// values, so neither ever records.
func (fo *flightObserver) step(now time.Duration, h resilient.Health, t faults.Tally) {
	if h != fo.lastHealth {
		fo.ring.Record(now.Seconds(), flight.KindHealth, h.String(),
			float64(fo.lastHealth), float64(h), 0)
		fo.lastHealth = h
	}
	if !fo.haveTally || t != fo.lastTally {
		if fo.haveTally { // skip the all-zero arming snapshot
			fo.ring.Record(now.Seconds(), flight.KindFault, "injected",
				float64(t.Total()), 0, 0)
		}
		fo.haveTally = true
		fo.lastTally = t
	}
}
