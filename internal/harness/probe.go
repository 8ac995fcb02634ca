package harness

import (
	"time"

	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/faults"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/resilient"
)

// A run's four optional observation sinks (Options.Tenants, Spans, Obs
// and Flight) share one governor lookup, one decision hook and one
// engine component, the probe; with no sink armed there is neither
// hook nor probe.

// GovernorSurfaces is what observers read from a governor. A power cap
// is transparent: every surface belongs to the policy beneath any
// *governor.PowerCapped wrapper. Each function is nil when the policy
// lacks it.
type GovernorSurfaces struct {
	// Policy is the governor beneath any power cap.
	Policy governor.Governor
	// OnDecision registers a hook called with every decision cycle.
	OnDecision func(func(core.Decision))
	// Health reads the sensing-path health.
	Health func() resilient.Health
	// Stats reads the MDFS counters (MAGUS and PerSocket).
	Stats func() core.Stats

	poll func() govCounters // counter snapshot for the metrics observer
}

// LookupGovernor discovers gov's observable surfaces. It is the only
// place the harness and the serve plane look beneath a power cap.
func LookupGovernor(gov governor.Governor) GovernorSurfaces {
	if pc, ok := gov.(*governor.PowerCapped); ok {
		gov = pc.Inner()
	}
	gs := GovernorSurfaces{Policy: gov}
	if src, ok := gov.(interface{ OnDecision(func(core.Decision)) }); ok {
		gs.OnDecision = src.OnDecision
	}
	if hr, ok := gov.(interface{ SensorHealth() resilient.Health }); ok {
		gs.Health = hr.SensorHealth
	}
	switch g := gov.(type) {
	case interface{ Stats() core.Stats }: // MAGUS and PerSocket
		gs.Stats = g.Stats
		gs.poll = func() govCounters { return govCounters{Stats: g.Stats()} }
	case *governor.UPS:
		gs.poll = func() govCounters {
			inv, reads, writes, resets := g.Stats()
			c := resilienceCounters(inv, g.Resilience())
			c.MSRWrites, c.msrReads, c.phaseResets = writes, reads, resets
			return c
		}
	case *governor.DUF:
		gs.poll = func() govCounters {
			c := resilienceCounters(g.Invocations(), g.Resilience())
			c.MSRWrites = g.MSRWrites()
			return c
		}
	}
	return gs
}

// resilienceCounters snapshots a baseline governor's invocation count
// and sensing-path counters.
func resilienceCounters(inv uint64, r resilient.Counters) govCounters {
	return govCounters{Stats: core.Stats{Invocations: inv}.WithSensor(r)}
}

// probe is the run's single observation component, added after the
// node when any sink is armed. Each tick it steps the armed sinks in a
// fixed order (attrib, spans, obs at its interval, flight) and reads
// the sensor health and fault tally at most once for all of them. Each
// sink keeps its own edge state; that state is what a checkpoint
// captures.
type probe struct {
	health func() resilient.Health // nil when the governor reports none
	fset   *faults.Set

	attrib *attribSampler
	spans  *spanSampler
	obs    *runObserver
	flight *flightObserver
}

// Step implements sim.Component.
func (p *probe) Step(now, dt time.Duration) {
	if p.attrib != nil {
		p.attrib.step(dt)
	}
	if p.spans != nil {
		p.spans.step(dt)
	}
	obsDue := p.obs != nil && p.obs.due(now)
	if !obsDue && p.flight == nil {
		return
	}
	h, t := p.read()
	if obsDue {
		p.obs.sample(now, h, t)
	}
	if p.flight != nil {
		p.flight.step(now, h, t)
	}
}

// read returns the sensor health and the fault tally; each is its zero
// value when the governor reports no health or no plan is armed.
func (p *probe) read() (resilient.Health, faults.Tally) {
	var h resilient.Health
	if p.health != nil {
		h = p.health()
	}
	return h, p.fset.Tally()
}

// decide is the run's one decision hook: it hands every decision to
// the armed sinks in a fixed order (obs, flight, spans).
func (p *probe) decide(d core.Decision) {
	if p.obs != nil {
		p.obs.do.observe(d)
	}
	if p.flight != nil {
		p.flight.decide(d)
	}
	if p.spans != nil {
		p.spans.decide(d)
	}
}
