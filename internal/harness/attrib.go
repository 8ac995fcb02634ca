package harness

import (
	"time"

	"github.com/spear-repro/magus/internal/attrib"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/obs"
)

// Everything in this file is wired only when Options.Tenants is set. A
// single-tenant run gives the probe no attribution sink and builds no
// meter, so it stays byte-identical with the zero-alloc tick contract
// intact.

// attribSampler drives the per-tenant energy meter once per engine
// step: it reads the power the node just computed and the live tenant
// share surface the multiplexer publishes through the node. The probe
// steps it after the node.
type attribSampler struct {
	meter *attrib.Meter
	n     *node.Node
	gpus  int

	// Optional metric mirrors (nil without Options.Obs):
	// magus_tenant_energy_joules{tenant,estimated}.
	exact, est []*obs.Gauge
}

// step attributes one engine step's energy.
func (a *attribSampler) step(dt time.Duration) {
	var gpuW float64
	for i := 0; i < a.gpus; i++ {
		gpuW += a.n.GPUPowerW(i)
	}
	a.meter.Accumulate(dt.Seconds(), a.n.CPUPowerW(), gpuW, a.n.TenantShares())
	if a.exact != nil {
		for i := range a.exact {
			t := a.meter.Tenant(i)
			a.exact[i].Set(t.ExactJ)
			a.est[i].Set(t.EstimatedJ)
		}
	}
}

// newAttribSampler wraps the attribution meter of a co-located run and,
// when an observer is attached, registers the per-tenant energy metric
// family with the DCGM-style estimated label.
func newAttribSampler(meter *attrib.Meter, n *node.Node, names []string, o *obs.Observer) *attribSampler {
	a := &attribSampler{meter: meter, n: n, gpus: n.GPUCount()}
	if o != nil {
		vec := o.Registry().GaugeVec("magus_tenant_energy_joules",
			"Cumulative energy attributed to each tenant of a co-located run, split by "+
				"attribution regime: estimated=\"false\" is measured energy from exclusive "+
				"ownership, estimated=\"true\" is the utilisation-share fallback.",
			"tenant", "estimated")
		for _, name := range names {
			a.exact = append(a.exact, vec.With(name, "false"))
			a.est = append(a.est, vec.With(name, "true"))
		}
	}
	return a
}
