package experiments

import (
	"context"
	"fmt"
	"time"

	"github.com/spear-repro/magus/internal/checkpoint"
	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/faults"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/harness"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/parallel"
	"github.com/spear-repro/magus/internal/report"
	"github.com/spear-repro/magus/internal/workload"
)

// TournamentEntry is one MAGUS parameter variant in the tournament:
// a label and a pure transformation of the base configuration.
type TournamentEntry struct {
	Name   string
	Mutate func(core.Config) core.Config
}

// DefaultTournamentVariants returns the stock parameter bracket: small
// threshold perturbations around the paper's defaults, the kind of
// sensitivity sweep Figure 7 performs one axis at a time.
func DefaultTournamentVariants() []TournamentEntry {
	return []TournamentEntry{
		{Name: "inc3", Mutate: func(c core.Config) core.Config { c.IncThresholdGBs = 3; return c }},
		{Name: "dec8", Mutate: func(c core.Config) core.Config { c.DecThresholdGBs = 8; return c }},
		{Name: "hf60", Mutate: func(c core.Config) core.Config { c.HighFreqThreshold = 0.60; return c }},
		{Name: "nohf", Mutate: func(c core.Config) core.Config { c.DisableHighFreq = true; return c }},
	}
}

// TournamentOptions selects the tournament grid. The zero value runs
// the default bracket on Intel+A100 over three workloads, fault-free.
type TournamentOptions struct {
	// Systems, Apps and FaultPresets span the grid of cells; every
	// entry competes in every cell. An empty fault preset name ("")
	// means no fault injection for that cell.
	Systems      []string
	Apps         []string
	FaultPresets []string
	// Variants are the MAGUS parameter entries beyond the base
	// configuration; nil selects DefaultTournamentVariants.
	Variants []TournamentEntry
	// Seed drives the whole grid (workload jitter and fault schedules).
	Seed int64
	// Jobs bounds the worker pool cells fan out across (<= 0 =
	// GOMAXPROCS). Output is byte-identical for any value.
	Jobs int
	// MagusOnly restricts every cell to the MAGUS family (base
	// configuration plus variants), dropping the vendor-default, UPS
	// and DUF baseline entries. Parameter-tuning sweeps use this: the
	// baselines are unaffected by the bracket and only add fixed cost.
	MagusOnly bool
	// Scratch disables fork-from-prefix sharing: every entry runs its
	// cell from the beginning. The output is byte-identical either
	// way; Scratch exists as the reference mode the differential test
	// and the benchmark compare against.
	Scratch bool
}

func (o TournamentOptions) normalize() TournamentOptions {
	if len(o.Systems) == 0 {
		o.Systems = []string{"Intel+A100"}
	}
	if len(o.Apps) == 0 {
		o.Apps = []string{"bfs", "gemm", "srad"}
	}
	if len(o.FaultPresets) == 0 {
		o.FaultPresets = []string{""}
	}
	if o.Variants == nil {
		o.Variants = DefaultTournamentVariants()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// TournamentCell is one entry's outcome in one (system, app, fault)
// cell: the run-level waste-attribution bucket plus standard metrics.
type TournamentCell struct {
	System string
	App    string
	Fault  string // preset name, "" = none
	Entry  string // "default", "ups", "duf", "magus", "magus+<variant>"

	// Run is the whole-run attribution bucket; Result the standard
	// harness metrics.
	Run    report.WasteRow
	Result harness.Result

	// Execution diagnostics (how the cell was produced, not what it
	// computed — excluded from Rows and Table so forked and scratch
	// tournaments render identically):
	//
	// Forked marks a run resumed from a shared-prefix checkpoint;
	// ForkedAtS is the virtual time of that fork. SharedPrefix marks
	// an entry that never diverged from the base run at all and
	// reuses its outcome outright.
	Forked       bool
	ForkedAtS    float64
	SharedPrefix bool
}

// TournamentResult is the full tournament grid in canonical order:
// systems × apps × fault presets, and within each cell the fixed
// entry order default, ups, duf, magus, then variants.
type TournamentResult struct {
	Cells []TournamentCell
}

// Rows flattens the grid into waste-attribution rows. Scope labels
// carry only the cell identity — never how the run was executed — so
// a forked tournament's rows are byte-identical to a scratch one's.
func (r TournamentResult) Rows() []report.WasteRow {
	rows := make([]report.WasteRow, 0, len(r.Cells))
	for _, c := range r.Cells {
		row := c.Run
		fault := c.Fault
		if fault == "" {
			fault = "nofault"
		}
		row.Scope = c.System + " " + c.App + " " + fault + " " + c.Entry
		rows = append(rows, row)
	}
	return rows
}

// Table renders the tournament as a waste-attribution table.
func (r TournamentResult) Table() *report.Table {
	return report.WasteTable(r.Rows())
}

// SharedSeconds sums the virtual seconds of base-run prefix that
// forked and fully shared entries did not have to re-execute.
func (r TournamentResult) SharedSeconds() float64 {
	var s float64
	for _, c := range r.Cells {
		if c.Forked || c.SharedPrefix {
			s += c.ForkedAtS
		}
	}
	return s
}

// Tournament runs every entry — vendor default, UPS, DUF, base MAGUS
// and each MAGUS parameter variant — in every (system, app, fault)
// cell of the grid and reports per-entry power-waste attribution.
//
// Unless opt.Scratch is set, MAGUS variants share the base run's
// prefix: a replay of the runtime's own MDFS transition (core.Replay,
// with every uncore write assumed to succeed) over the base run's
// decision stream finds the first cycle at which each variant would
// act differently, and the variant resumes from a checkpoint taken
// just before that cycle instead of re-executing the shared prefix.
// Cells are reassembled in canonical grid order, so the result is
// byte-identical to the serial from-scratch sweep.
func Tournament(opt TournamentOptions) (TournamentResult, error) {
	opt = opt.normalize()

	type group struct {
		cfg   node.Config
		prog  *workload.Program
		fault string
	}
	var groups []group
	for _, sysName := range opt.Systems {
		cfg, err := harness.SystemByName(sysName)
		if err != nil {
			return TournamentResult{}, err
		}
		for _, app := range opt.Apps {
			prog, err := program(app)
			if err != nil {
				return TournamentResult{}, err
			}
			for _, fp := range opt.FaultPresets {
				if fp != "" {
					if _, ok := faults.Preset(fp); !ok {
						return TournamentResult{}, fmt.Errorf("experiments: unknown fault preset %q", fp)
					}
				}
				groups = append(groups, group{cfg, prog, fp})
			}
		}
	}
	for i, v := range opt.Variants {
		if v.Name == "" || v.Mutate == nil {
			return TournamentResult{}, fmt.Errorf("experiments: variant %d needs a name and a Mutate function", i)
		}
	}

	// One worker job per (system, app, fault) cell; entries within a
	// cell run serially because the forked planner interleaves them.
	// parallel.Map reassembles in submission order, which keeps the
	// grid canonical for any jobs value.
	cells, err := parallel.Map(context.Background(), len(groups), opt.Jobs, nil,
		func(_ context.Context, i int) ([]TournamentCell, error) {
			g := groups[i]
			return runTournamentGroup(g.cfg, g.prog, g.fault, opt)
		})
	if err != nil {
		return TournamentResult{}, err
	}
	out := TournamentResult{}
	for _, cs := range cells {
		out.Cells = append(out.Cells, cs...)
	}
	return out, nil
}

// runTournamentGroup produces one cell's entries in fixed order.
func runTournamentGroup(cfg node.Config, prog *workload.Program, fault string, opt TournamentOptions) ([]TournamentCell, error) {
	var cells []TournamentCell
	if !opt.MagusOnly {
		for _, name := range []string{"default", "ups", "duf"} {
			c, err := runTournamentCell(cfg, prog, fault, name, policy(cfg.Name, name)(), opt.Seed)
			if err != nil {
				return nil, err
			}
			cells = append(cells, c)
		}
	}
	magus, err := runMagusFamily(cfg, prog, fault, opt)
	if err != nil {
		return nil, err
	}
	return append(cells, magus...), nil
}

// tournamentPlan builds the cell's fault plan (a fresh copy per call;
// plans are consumed by the run that arms them).
func tournamentPlan(fault string, seed int64) *faults.Plan {
	if fault == "" {
		return nil
	}
	plan, _ := faults.Preset(fault)
	plan.Seed = seed
	return plan
}

// runTournamentCell executes one entry from scratch.
func runTournamentCell(cfg node.Config, prog *workload.Program, fault, entry string, gov governor.Governor, seed int64) (TournamentCell, error) {
	lr, err := runLedger(cfg, prog, gov, harness.Options{Seed: seed, Faults: tournamentPlan(fault, seed)})
	if err != nil {
		return TournamentCell{}, fmt.Errorf("experiments: tournament %s/%s/%s: %w",
			cfg.Name, prog.Name, entry, err)
	}
	return tournamentCell(cfg, prog, fault, entry, lr), nil
}

// tournamentCell assembles a cell from a finished run's ledger.
func tournamentCell(cfg node.Config, prog *workload.Program, fault, entry string, lr ledgerRun) TournamentCell {
	return TournamentCell{
		System: cfg.Name, App: prog.Name, Fault: fault, Entry: entry,
		Run:    lr.run,
		Result: lr.res,
	}
}

// forkCompatible reports whether a variant may fork from the base
// run's prefix at all. Beyond the decision stream, a MAGUS invocation
// charges the node Charge(InvocationTime, BusyCores, ExtraWatts) and
// its sensor layer evolves from the resilience configuration — state
// the replay validation cannot see — so those knobs must match
// exactly. Window must match so the restored ring buffers fit.
// Divergent warm-up parameters need no rule here: they surface as an
// automaton state difference on the first replay cycle.
func forkCompatible(base, v core.Config) bool {
	return base.Window == v.Window &&
		base.Interval == v.Interval &&
		base.InvocationTime == v.InvocationTime &&
		base.BusyCores == v.BusyCores &&
		base.ExtraWatts == v.ExtraWatts &&
		base.Resilience == v.Resilience
}

// runMagusFamily runs the base MAGUS and every variant for one cell.
// In scratch mode each is an independent run; otherwise the base run
// doubles as the fork-from-prefix planner for the variants.
func runMagusFamily(cfg node.Config, prog *workload.Program, fault string, opt TournamentOptions) ([]TournamentCell, error) {
	baseCfg := magusConfigFor(cfg.Name)
	varCfgs := make([]core.Config, len(opt.Variants))
	for i, v := range opt.Variants {
		vc := v.Mutate(baseCfg)
		if err := vc.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: variant %s: %w", v.Name, err)
		}
		varCfgs[i] = vc
	}

	if opt.Scratch {
		cells := make([]TournamentCell, 0, 1+len(opt.Variants))
		c, err := runTournamentCell(cfg, prog, fault, "magus", core.New(baseCfg), opt.Seed)
		if err != nil {
			return nil, err
		}
		cells = append(cells, c)
		for i, v := range opt.Variants {
			c, err := runTournamentCell(cfg, prog, fault, "magus+"+v.Name, core.New(varCfgs[i]), opt.Seed)
			if err != nil {
				return nil, err
			}
			cells = append(cells, c)
		}
		return cells, nil
	}
	return forkMagusFamily(cfg, prog, fault, baseCfg, varCfgs, opt)
}

// variantPlan tracks one variant through the shared-prefix replay.
type variantPlan struct {
	cfg core.Config
	sim *core.Replay

	scratch bool // incompatible or diverged before any shared cycle
	forked  bool // diverged at cycle forkCycle; resumes from blob
	blob    []byte
	forkAtS float64
}

// checkpointEvery is the planner's capture cadence in decision
// cycles. A variant may resume from any checkpoint at or before its
// first divergent cycle — the cycles in between were validated
// outcome- and state-equal, so the variant re-executes them
// identically — which lets the planner amortise the capture cost
// (Checkpoint + Encode is a full state serialisation) over several
// cycles at the price of re-running at most checkpointEvery-1 cheap
// validated cycles per fork.
const checkpointEvery = 8

// forkMagusFamily executes the base MAGUS run invocation by
// invocation, replaying each variant's automaton against the recorded
// decisions, and forks every variant from the last checkpoint taken
// at or before its first divergent cycle. Variants that never diverge
// reuse the base outcome; variants that diverge before the first
// shared cycle (or whose configuration is fork-incompatible) run from
// scratch.
func forkMagusFamily(cfg node.Config, prog *workload.Program, fault string, baseCfg core.Config, varCfgs []core.Config, opt TournamentOptions) ([]TournamentCell, error) {
	fail := func(stage string, err error) ([]TournamentCell, error) {
		return nil, fmt.Errorf("experiments: tournament %s/%s %s: %w", cfg.Name, prog.Name, stage, err)
	}

	gov := core.New(baseCfg)
	var pending []core.Decision
	gov.OnDecision(func(d core.Decision) { pending = append(pending, d) })
	tr := newTracer(gov)
	st, err := harness.NewSteppable(cfg, prog, gov, harness.Options{
		Seed: opt.Seed, Faults: tournamentPlan(fault, opt.Seed), Spans: tr,
	})
	if err != nil {
		return fail("base", err)
	}

	baseSim := core.NewReplay(baseCfg, cfg.UncoreMinGHz, cfg.UncoreMaxGHz)
	vps := make([]variantPlan, len(varCfgs))
	var tracking []int
	for i, vc := range varCfgs {
		vps[i] = variantPlan{cfg: vc, sim: core.NewReplay(vc, cfg.UncoreMinGHz, cfg.UncoreMaxGHz)}
		if !forkCompatible(baseCfg, vc) || !vps[i].sim.StateEqual(baseSim) {
			vps[i].scratch = true
			continue
		}
		tracking = append(tracking, i)
	}

	// Drive the base run one governor invocation at a time. Each
	// iteration advances to the pre-invoke boundary, captures a rolling
	// checkpoint there, fires exactly the one pending invocation, and
	// replays the resulting decision through the base and variant
	// automata. A variant forks when its replayed cycle first differs
	// from the base's — or when the base replay itself fails to match
	// the recorded decision (an effect the replay cannot model, e.g. a
	// faulted MSR write), which forks every tracker conservatively.
	var (
		preBlob []byte
		preAt   float64
		cycle   int
		done    bool
	)
	for !done {
		if len(tracking) == 0 {
			// Every variant resolved; finish the base run outright.
			done, err = st.Advance(st.Horizon())
			if err != nil {
				return fail("base", err)
			}
			if !done {
				return fail("base", fmt.Errorf("run did not complete within horizon %s", st.Horizon()))
			}
			break
		}
		if d := st.NextInvocation() - st.Now(); d > 0 {
			done, err = st.Advance(d)
			if err != nil {
				return fail("base", err)
			}
			if done {
				break
			}
		}
		if cycle > 0 && cycle%checkpointEvery == 0 {
			data, err := st.Checkpoint()
			if err != nil {
				return fail("checkpoint", err)
			}
			if preBlob, err = checkpoint.Encode(data); err != nil {
				return fail("checkpoint", err)
			}
			preAt = st.Now().Seconds()
		}
		if done, err = st.Advance(time.Nanosecond); err != nil {
			return fail("base", err)
		}
		for _, d := range pending {
			in := core.InferReplayInput(d, baseSim)
			valid := baseSim.Cycle(in).SameOutcome(d)
			keep := tracking[:0]
			for _, vi := range tracking {
				vp := &vps[vi]
				vd := vp.sim.Cycle(in)
				if valid && vd.SameOutcome(d) && vp.sim.StateEqual(baseSim) {
					keep = append(keep, vi)
					continue
				}
				if preBlob == nil {
					// Diverged before the first captured boundary;
					// nothing shared worth resuming from.
					vp.scratch = true
					continue
				}
				vp.forked = true
				vp.blob = preBlob
				vp.forkAtS = preAt
			}
			tracking = keep
			cycle++
		}
		pending = pending[:0]
	}
	baseRes := st.Result()
	baseCell := tournamentCell(cfg, prog, fault, "magus", reduceLedger(cfg, baseRes, tr))

	cells := make([]TournamentCell, 0, 1+len(vps))
	cells = append(cells, baseCell)
	for i, vp := range vps {
		entry := "magus+" + opt.Variants[i].Name
		switch {
		case vp.forked:
			c, err := resumeVariant(cfg, prog, fault, entry, vp)
			if err != nil {
				return nil, err
			}
			cells = append(cells, c)
		case vp.scratch:
			c, err := runTournamentCell(cfg, prog, fault, entry, core.New(vp.cfg), opt.Seed)
			if err != nil {
				return nil, err
			}
			cells = append(cells, c)
		default:
			// Never diverged: the variant's run would have been
			// bit-identical to the base's, so reuse its outcome.
			c := baseCell
			c.Entry = entry
			c.SharedPrefix = true
			c.ForkedAtS = baseRes.RuntimeS
			cells = append(cells, c)
		}
	}
	return cells, nil
}

// resumeVariant restores the shared-prefix checkpoint under the
// variant's configuration and runs the remainder of the cell.
func resumeVariant(cfg node.Config, prog *workload.Program, fault, entry string, vp variantPlan) (TournamentCell, error) {
	fail := func(err error) (TournamentCell, error) {
		return TournamentCell{}, fmt.Errorf("experiments: tournament %s/%s/%s fork: %w",
			cfg.Name, prog.Name, entry, err)
	}
	data, err := checkpoint.Decode(vp.blob)
	if err != nil {
		return fail(err)
	}
	gov := core.New(vp.cfg)
	tr := newTracer(gov)
	st, err := harness.Resume(data, harness.ResumeOptions{Gov: gov, Spans: tr})
	if err != nil {
		return fail(err)
	}
	done, err := st.Advance(st.Horizon())
	if err != nil {
		return fail(err)
	}
	if !done {
		return fail(fmt.Errorf("resumed run did not complete within horizon %s", st.Horizon()))
	}
	c := tournamentCell(cfg, prog, fault, entry, reduceLedger(cfg, st.Result(), tr))
	c.Forked = true
	c.ForkedAtS = vp.forkAtS
	return c, nil
}
