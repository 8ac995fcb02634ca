package main

import (
	"encoding/json"
	"fmt"
	"time"

	"github.com/spear-repro/magus/internal/cluster"
	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/faults"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/harness"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/serve"
	"github.com/spear-repro/magus/internal/telemetry"
	"github.com/spear-repro/magus/internal/workload"
)

// cell is one single-node simulated run, the unit every workload is
// made of. The same cell can be executed as a harness.Run, a fleet
// member, a serve session or a hand-wired replica, which is what lets
// the traced profile push every workload's own cells through every
// layer.
type cell struct {
	sys      string   // node preset in serve's spelling: a100, 4a100, max1550
	app      string   // catalog workload; empty when colocated
	colocate []string // round-robin co-located apps (serve only)
	gov      string   // default, magus, ups or duf
	seed     int64
	faults   string // fault preset name; empty = none
	waste    bool   // serve sessions arm the waste ledger
}

func (c cell) String() string {
	app := c.app
	if len(c.colocate) > 0 {
		app = fmt.Sprint(c.colocate)
	}
	s := fmt.Sprintf("%s/%s/%s", c.sys, app, c.gov)
	if c.faults != "" {
		s += "+" + c.faults
	}
	if c.waste {
		s += "+waste"
	}
	return s
}

// single reports whether the cell is a plain one-workload run, the only
// kind a fleet member or a hand-wired replica can be.
func (c cell) single() bool { return len(c.colocate) == 0 }

func (c cell) config() node.Config {
	switch c.sys {
	case "4a100":
		return node.Intel4A100()
	case "max1550":
		return node.IntelMax1550()
	}
	return node.IntelA100()
}

func mustProgram(name string) *workload.Program {
	p, ok := workload.ByName(name)
	if !ok {
		panic(fmt.Sprintf("benchmark: unknown workload %q", name))
	}
	return p
}

// program is nil for a colocated cell.
func (c cell) program() *workload.Program {
	if !c.single() {
		return nil
	}
	return mustProgram(c.app)
}

// newGovernor mirrors the serve daemon's governor table, so a cell
// gives the same result whichever path runs it.
func (c cell) newGovernor() governor.Governor {
	switch c.gov {
	case "magus":
		return core.New(core.DefaultConfig())
	case "ups":
		return governor.NewUPS(governor.UPSConfig{})
	case "duf":
		return governor.NewDUF(governor.DUFConfig{})
	case "default":
		return governor.NewDefault()
	}
	panic(fmt.Sprintf("benchmark: unknown governor %q", c.gov))
}

func (c cell) faultPlan() *faults.Plan {
	if c.faults == "" {
		return nil
	}
	plan, ok := faults.Preset(c.faults)
	if !ok {
		panic(fmt.Sprintf("benchmark: unknown fault preset %q", c.faults))
	}
	plan.Seed = c.seed
	return plan
}

// options is the harness.Options a serve session builds for the cell,
// minus the passive sinks (flight ring, waste tracer).
func (c cell) options() harness.Options {
	opt := harness.Options{Seed: c.seed, Faults: c.faultPlan()}
	if !c.single() {
		ms := &workload.MuxSpec{Policy: workload.RoundRobin}
		for i, app := range c.colocate {
			ms.Tenants = append(ms.Tenants, workload.TenantSpec{
				Tenant: fmt.Sprintf("t%d", i), Program: mustProgram(app), Seed: c.seed,
			})
		}
		opt.Tenants = ms
	}
	return opt
}

func (c cell) runSpec() harness.RunSpec {
	return harness.RunSpec{Cfg: c.config(), Prog: c.program(), Factory: c.newGovernor, Opt: c.options()}
}

func (c cell) run() (harness.Result, error) {
	return harness.Run(c.config(), c.program(), c.newGovernor(), c.options())
}

func (c cell) nodeSpec(i int) cluster.NodeSpec {
	return cluster.NodeSpec{
		Name:     fmt.Sprintf("m%04d", i),
		Config:   c.config(),
		Workload: c.program(),
		Factory:  c.newGovernor,
		Seed:     c.seed,
		Faults:   c.faultPlan(),
	}
}

func (c cell) serveSpec() serve.Spec {
	sp := serve.Spec{
		Tenant: "bench", System: c.sys, Workload: c.app, Governor: c.gov,
		Seed: c.seed, Faults: c.faults, Waste: c.waste,
	}
	for i, app := range c.colocate {
		sp.Colocate = append(sp.Colocate, serve.ColocateTenant{Tenant: fmt.Sprintf("t%d", i), Workload: app})
	}
	return sp
}

// tickCount is the number of engine steps (simulated node-milliseconds)
// a finished run took.
func tickCount(r harness.Result) int64 { return int64(r.RuntimeS*1000 + 0.5) }

// resultBytes is the canonical JSON of a run's outcome. Recorded traces
// are included series by series (json sorts the map keys).
func resultBytes(r harness.Result) []byte {
	var series map[string]*telemetry.Series
	if r.Traces != nil {
		series = make(map[string]*telemetry.Series)
		for _, name := range r.Traces.Names() {
			series[name] = r.Traces.Series(name)
		}
	}
	r.Traces = nil
	return mustJSON(struct {
		Result harness.Result
		Traces map[string]*telemetry.Series `json:",omitempty"`
	}{r, series})
}

// fleetBytes is the canonical JSON of a fleet outcome with its member
// ranking cut to topK, so runs asking for different TopK compare.
func fleetBytes(r cluster.Result, topK int) []byte {
	if len(r.Top) > topK {
		r.Top = r.Top[:topK]
	}
	return mustJSON(r)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("benchmark: marshal %T: %v", v, err))
	}
	return b
}

// evenly picks n cells spread across the list from its first to its
// last (all of them when n <= 0 or n >= len). Including both ends keeps
// the pick from landing on one governor of a grid whose length n
// divides.
func evenly(cells []cell, n int) []cell {
	if n <= 0 || n >= len(cells) {
		return cells
	}
	if n == 1 {
		return cells[:1]
	}
	out := make([]cell, n)
	for i := range out {
		out[i] = cells[i*(len(cells)-1)/(n-1)]
	}
	return out
}

func singles(cells []cell) []cell {
	var out []cell
	for _, c := range cells {
		if c.single() {
			out = append(out, c)
		}
	}
	return out
}

// stepChunk is the virtual time one serve step request advances.
const stepChunk = 500 * time.Millisecond
