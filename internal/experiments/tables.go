package experiments

import (
	"context"
	"time"

	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/harness"
	"github.com/spear-repro/magus/internal/msr"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/parallel"
	"github.com/spear-repro/magus/internal/telemetry"
	"github.com/spear-repro/magus/internal/workload"
)

// JaccardRow is one application of Table 1.
type JaccardRow struct {
	App     string
	Jaccard float64
}

// Table1Result is the burst-prediction similarity table (§6.3).
type Table1Result struct {
	Rows []JaccardRow
	// Bins and ThresholdFrac document the burst-extraction settings:
	// both runs are resampled to Bins bins; a bin is a burst when its
	// mean throughput exceeds ThresholdFrac of the baseline's peak.
	Bins          int
	ThresholdFrac float64
}

// Table1 computes the Jaccard similarity between the memory-throughput
// burst patterns of the max-uncore baseline and MAGUS for every Table 1
// application, on Intel+A100.
func Table1(opt Options) (Table1Result, error) {
	opt, err := opt.normalize()
	if err != nil {
		return Table1Result{}, err
	}
	cfg := node.IntelA100()
	out := Table1Result{Bins: 200, ThresholdFrac: 0.5}
	apps := workload.Table1Apps()
	// Flat grid: (baseline, magus) traced pair per application.
	specs := make([]harness.RunSpec, 0, len(apps)*2)
	for _, app := range apps {
		specs = append(specs,
			traceSpec(cfg, app, policy(cfg.Name, "default"), opt),
			traceSpec(cfg, app, policy(cfg.Name, "magus"), opt))
	}
	results, err := harness.RunBatch(specs, opt.Jobs)
	if err != nil {
		return Table1Result{}, err
	}
	for i, app := range apps {
		base, magus := results[2*i], results[2*i+1]
		j := telemetry.BurstJaccard(
			base.Traces.Series("mem_gbs"),
			magus.Traces.Series("mem_gbs"),
			out.Bins, out.ThresholdFrac)
		out.Rows = append(out.Rows, JaccardRow{App: app, Jaccard: j})
	}
	return out, nil
}

// Mean returns the table's mean Jaccard score.
func (t Table1Result) Mean() float64 {
	if len(t.Rows) == 0 {
		return 0
	}
	var s float64
	for _, r := range t.Rows {
		s += r.Jaccard
	}
	return s / float64(len(t.Rows))
}

// Get returns one app's score.
func (t Table1Result) Get(app string) (float64, bool) {
	for _, r := range t.Rows {
		if r.App == app {
			return r.Jaccard, true
		}
	}
	return 0, false
}

// OverheadRow is one (system, method) cell of Table 2.
type OverheadRow struct {
	System string
	Method string
	// PowerOverheadPct is the idle-power increase the runtime causes.
	PowerOverheadPct float64
	// InvocationS is the measured busy time per decision cycle.
	InvocationS float64
}

// Table2Result is the runtime-overhead table (§6.5).
type Table2Result struct {
	Rows []OverheadRow
	// IdleWindow is the measurement duration (the paper idles 10 min).
	IdleWindow time.Duration
}

// Get returns the row for (system, method).
func (t Table2Result) Get(system, method string) (OverheadRow, bool) {
	for _, r := range t.Rows {
		if r.System == system && r.Method == method {
			return r, true
		}
	}
	return OverheadRow{}, false
}

// discardWrites wraps an MSR device so uncore-limit writes are
// accepted but ignored.
type discardWrites struct{ dev msr.Device }

func (d discardWrites) Read(cpu int, reg uint32) (uint64, error) { return d.dev.Read(cpu, reg) }

func (d discardWrites) Write(cpu int, reg uint32, val uint64) error {
	if reg == msr.UncoreRatioLimit {
		return nil
	}
	return d.dev.Write(cpu, reg, val)
}

// idleOverhead runs a governor the §6.5 way: Table 2 measures
// monitoring and decision cost "excluding uncore scaling", so the
// governor sees an MSR device that discards its uncore-limit writes
// and the node's uncore state never changes. It counts the governor's
// invocations, and observers see through it to the governor.
type idleOverhead struct {
	governor.Governor
	invocations uint64
}

// Inner returns the measured governor.
func (g *idleOverhead) Inner() governor.Governor { return g.Governor }

func (g *idleOverhead) Attach(env *governor.Env) error {
	e := *env
	e.Dev = discardWrites{dev: env.Dev}
	return g.Governor.Attach(&e)
}

func (g *idleOverhead) Invoke(now time.Duration) time.Duration {
	g.invocations++
	return g.Governor.Invoke(now)
}

// Table2 measures each runtime's idle overhead on the two single-GPU
// systems: run the governor for idleWindow on an idle node and compare
// average CPU power against an unmanaged idle node; invocation cost is
// the daemon busy time per decision cycle. idleWindow <= 0 selects the
// paper's 10 minutes.
func Table2(idleWindow time.Duration, opt Options) (Table2Result, error) {
	opt, err := opt.normalize()
	if err != nil {
		return Table2Result{}, err
	}
	if idleWindow <= 0 {
		idleWindow = 10 * time.Minute
	}
	out := Table2Result{IdleWindow: idleWindow}
	// Six independent idle cells — (2 systems) × (unmanaged, magus,
	// ups) — on one pool; the unmanaged baselines are read back by
	// index.
	cfgs := []node.Config{node.IntelA100(), node.IntelMax1550()}
	methods := []string{"", "magus", "ups"}
	type idleCell struct {
		powerW, busySec float64
		invocations     uint64
	}
	var pm *parallel.Metrics
	if opt.Obs != nil {
		pm = parallel.NewMetrics(opt.Obs.Registry())
	}
	cells, err := parallel.Map(context.Background(), len(cfgs)*len(methods), opt.Jobs, pm,
		func(_ context.Context, i int) (idleCell, error) {
			cfg := cfgs[i/len(methods)]
			gov := &idleOverhead{Governor: governor.Unmanaged{}}
			if m := methods[i%len(methods)]; m != "" {
				gov.Governor = policy(cfg.Name, m)()
			}
			st, err := harness.NewSteppable(cfg, workload.Idle(idleWindow), gov,
				harness.Options{Seed: opt.Seed, Obs: opt.Obs})
			if err != nil {
				return idleCell{}, err
			}
			if _, err := st.Advance(st.Horizon()); err != nil {
				return idleCell{}, err
			}
			pkgJ, drmJ, _ := st.Node().EnergyJ()
			return idleCell{(pkgJ + drmJ) / idleWindow.Seconds(), st.Node().DaemonBusySeconds(), gov.invocations}, nil
		})
	if err != nil {
		return Table2Result{}, err
	}
	for ci, cfg := range cfgs {
		basePower := cells[ci*len(methods)].powerW
		for mi, method := range methods[1:] {
			cell := cells[ci*len(methods)+1+mi]
			row := OverheadRow{
				System:           cfg.Name,
				Method:           method,
				PowerOverheadPct: (cell.powerW - basePower) / basePower * 100,
			}
			if cell.invocations > 0 {
				row.InvocationS = cell.busySec / float64(cell.invocations)
			}
			out.Rows = append(out.Rows, row)
		}
	}
	return out, nil
}
