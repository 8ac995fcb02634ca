package harness

import (
	"time"

	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/faults"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/resilient"
	"github.com/spear-repro/magus/internal/telemetry"
)

// A run's five optional observation sinks (Options.TraceInterval,
// Tenants, Spans, Obs and Flight) share one governor lookup, one
// decision hook and one engine component, the probe; with no sink armed
// there is neither hook nor probe.

// GovernorSurfaces is what observers read from a governor. A wrapper
// that exposes Inner() governor.Governor (a *governor.PowerCapped, an
// overhead probe) is transparent: every surface belongs to the policy
// beneath all such wrappers. Each function is nil when the policy lacks
// it.
type GovernorSurfaces struct {
	// Policy is the governor beneath every wrapper.
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
// place the harness and the serve plane look beneath a wrapper.
func LookupGovernor(gov governor.Governor) GovernorSurfaces {
	for {
		w, ok := gov.(interface{ Inner() governor.Governor })
		if !ok {
			break
		}
		gov = w.Inner()
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
// fixed order (trace at its interval, attrib, spans, obs at its
// interval, flight) and reads the sensor health and fault tally at most
// once for all of them. Each sink keeps its own edge state; that state
// is what a checkpoint captures.
type probe struct {
	health func() resilient.Health // nil when the governor reports none
	fset   *faults.Set
	// h and t are the health and tally read this tick; the trace's
	// sensor_health and faults_injected columns sample them.
	h resilient.Health
	t faults.Tally

	rec    *telemetry.Recorder
	attrib *attribSampler
	spans  *spanSampler
	obs    *runObserver
	flight *flightObserver
}

// Step implements sim.Component.
func (p *probe) Step(now, dt time.Duration) {
	recDue := p.rec != nil && p.rec.Due(now)
	obsDue := p.obs != nil && p.obs.due(now)
	if recDue || obsDue || p.flight != nil {
		p.h, p.t = p.read()
	}
	if recDue {
		p.rec.Step(now, dt)
	}
	if p.attrib != nil {
		p.attrib.step(dt)
	}
	if p.spans != nil {
		p.spans.step(dt)
	}
	if obsDue {
		p.obs.sample(now, p.h, p.t)
	}
	if p.flight != nil {
		p.flight.step(now, p.h, p.t)
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
