package harness

import (
	"fmt"
	"time"

	"github.com/spear-repro/magus/internal/checkpoint"
	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/obs"
	"github.com/spear-repro/magus/internal/resilient"
	"github.com/spear-repro/magus/internal/spans"
	"github.com/spear-repro/magus/internal/workload"
)

// Checkpoint captures the run's complete state at its current virtual
// time. The run must still be in flight (a finished run has nothing to
// resume) and the program must come from the workload catalog (resume
// rebuilds it by name).
//
// The returned data is self-contained: it can be encoded with
// checkpoint.Encode, shipped, decoded and resumed any number of times;
// a single in-memory Data may also be resumed repeatedly (State()
// deep-copies, Restore copies back in).
func (s *Steppable) Checkpoint() (*checkpoint.Data, error) {
	if s.done {
		return nil, fmt.Errorf("harness: checkpoint of a finished run")
	}
	if s.mux != nil {
		return nil, fmt.Errorf("harness: co-located runs are not checkpointable")
	}
	if p, ok := workload.ByName(s.prog.Name); !ok || p != s.prog {
		return nil, fmt.Errorf("harness: program %q is not the catalog program of that name", s.prog.Name)
	}

	d := &checkpoint.Data{
		System:  s.cfg,
		Program: s.prog.Name,
		GovName: s.gov.Name(),

		Seed:          s.opt.Seed,
		Step:          s.opt.Step,
		TraceInterval: s.opt.TraceInterval,
		Horizon:       s.horizon,
		PCMNoise:      s.opt.PCMNoise,
		Faults:        s.opt.Faults,
		HasObs:        s.opt.Obs != nil,

		Engine:   s.eng.State(),
		Node:     s.n.State(),
		Runner:   s.runner.State(),
		FaultSet: s.fset.State(),
		SysPCM:   s.mons.sys.State(),
	}
	for _, m := range s.mons.sock {
		d.SockPCM = append(d.SockPCM, m.State())
	}
	if s.mons.noise != nil {
		d.NoiseDraws = s.mons.noise.Draws()
	}
	if s.env.RAPL != nil {
		st := s.env.RAPL.State()
		d.RAPL = &st
	}

	// A power cap keeps no state of its own past Attach, which resume
	// replays; the policy beneath it carries the run's governor state.
	switch g := LookupGovernor(s.gov).Policy.(type) {
	case *core.MAGUS:
		st := g.State()
		d.Magus = &st
	case *core.PerSocket:
		st := g.State()
		d.PerSocket = &st
	case *governor.UPS:
		st := g.State()
		d.UPS = &st
	case *governor.DUF:
		st := g.State()
		d.DUF = &st
	case *governor.Default, *governor.Static:
		d.Shadow = s.env.ShadowState()
	default:
		return nil, fmt.Errorf("harness: governor %s (%T) is not checkpointable", s.gov.Name(), s.gov)
	}

	if s.rec != nil {
		st := s.rec.State()
		d.Recorder = &st
	}

	if s.opt.Obs != nil {
		o := s.opt.Obs
		d.Registry = o.Registry().StateDump()
		d.EventCount = o.Events().Count()
		d.Health = int(o.Health())
		ro := s.sinks.obs
		ros := &checkpoint.RunObserverState{
			Next:       ro.next,
			LastHealth: int(ro.lastHealth),
			LastTally:  ro.lastTally,
		}
		for _, del := range ro.deltas {
			ros.DeltaLast = append(ros.DeltaLast, del.last)
		}
		d.RunObs = ros
		if ro.do != nil {
			d.DecisionObs = &checkpoint.DecisionObserverState{
				HavePrev:   ro.do.havePrev,
				PrevAt:     ro.do.prevAt,
				PrevTrend:  int(ro.do.prevTrend),
				PrevPhase:  ro.do.prevPhase,
				PrevHealth: int(ro.do.prevHealth),
			}
		}
	}

	if s.opt.Spans != nil {
		d.Tracer = s.opt.Spans.State()
		d.SpanLastPhase = s.sinks.spans.lastPhase
	}
	return d, nil
}

// Checkpoint builds the run exactly as Run would and advances it to
// virtual time at, then captures its state. The run must still be in
// flight at that point.
func Checkpoint(cfg node.Config, prog *workload.Program, gov governor.Governor, opt Options, at time.Duration) (*checkpoint.Data, error) {
	st, err := NewSteppable(cfg, prog, gov, opt)
	if err != nil {
		return nil, err
	}
	if at > 0 {
		done, err := st.Advance(at)
		if err != nil {
			return nil, err
		}
		if done {
			return nil, fmt.Errorf("harness: %s/%s/%s finished before checkpoint time %v",
				cfg.Name, prog.Name, gov.Name(), at)
		}
	}
	return st.Checkpoint()
}

// ResumeOptions supplies the per-run objects a resumed run needs fresh
// instances of: the governor (same concrete type and configuration as
// the checkpointed one — its name is cross-checked), plus an observer
// and a spans tracer when the original run had them (presence must
// match; the restore overwrites their state wholesale).
type ResumeOptions struct {
	Gov   governor.Governor
	Obs   *obs.Observer
	Spans *spans.Tracer
}

// Resume rebuilds the checkpointed run's wiring from its identity and
// overwrites every piece of mutable state with the captured snapshot.
// The returned Steppable continues exactly where the original stood:
// advancing it to completion yields results, traces, metrics, events
// and spans byte-identical to the uninterrupted run.
func Resume(d *checkpoint.Data, ro ResumeOptions) (*Steppable, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if ro.Gov == nil {
		return nil, fmt.Errorf("harness: resume without a governor")
	}
	if ro.Gov.Name() != d.GovName {
		return nil, fmt.Errorf("harness: resume governor %q, checkpoint was %q", ro.Gov.Name(), d.GovName)
	}
	if d.HasObs != (ro.Obs != nil) {
		return nil, fmt.Errorf("harness: observer presence mismatch (checkpoint %v, resume %v)",
			d.HasObs, ro.Obs != nil)
	}
	if (d.Tracer != nil) != (ro.Spans != nil) {
		return nil, fmt.Errorf("harness: spans tracer presence mismatch (checkpoint %v, resume %v)",
			d.Tracer != nil, ro.Spans != nil)
	}
	prog, ok := workload.ByName(d.Program)
	if !ok {
		return nil, fmt.Errorf("harness: resume references unknown program %q", d.Program)
	}

	opt := Options{
		Seed:          d.Seed,
		Step:          d.Step,
		TraceInterval: d.TraceInterval,
		Horizon:       d.Horizon,
		PCMNoise:      d.PCMNoise,
		Faults:        d.Faults,
		Obs:           ro.Obs,
		Spans:         ro.Spans,
	}
	st, err := newSteppable(d.System, prog, ro.Gov, opt, true)
	if err != nil {
		return nil, fmt.Errorf("harness: resume: %w", err)
	}

	if err := st.eng.Restore(d.Engine); err != nil {
		return nil, fmt.Errorf("harness: resume: %w", err)
	}
	if err := st.n.Restore(d.Node); err != nil {
		return nil, fmt.Errorf("harness: resume: %w", err)
	}
	if err := st.runner.Restore(d.Runner); err != nil {
		return nil, fmt.Errorf("harness: resume: %w", err)
	}
	if err := st.fset.Restore(d.FaultSet); err != nil {
		return nil, fmt.Errorf("harness: resume: %w", err)
	}
	st.mons.sys.Restore(d.SysPCM)
	if len(d.SockPCM) != len(st.mons.sock) {
		return nil, fmt.Errorf("harness: resume has %d socket monitors, run built %d",
			len(d.SockPCM), len(st.mons.sock))
	}
	for i, m := range st.mons.sock {
		m.Restore(d.SockPCM[i])
	}
	if st.mons.noise != nil {
		st.mons.noise.Restore(d.NoiseDraws)
	}
	if (st.env.RAPL == nil) != (d.RAPL == nil) {
		return nil, fmt.Errorf("harness: resume RAPL presence mismatch (checkpoint %v, rebuilt %v)",
			d.RAPL != nil, st.env.RAPL != nil)
	}
	if d.RAPL != nil {
		if err := st.env.RAPL.Restore(*d.RAPL); err != nil {
			return nil, fmt.Errorf("harness: resume: %w", err)
		}
	}

	var gerr error
	switch g := LookupGovernor(st.gov).Policy.(type) {
	case *core.MAGUS:
		gerr = restoreState(d.Magus, g.Restore)
	case *core.PerSocket:
		gerr = restoreState(d.PerSocket, g.Restore)
	case *governor.UPS:
		gerr = restoreState(d.UPS, g.Restore)
	case *governor.DUF:
		gerr = restoreState(d.DUF, g.Restore)
	case *governor.Default, *governor.Static:
		st.env.RestoreShadow(d.Shadow)
	default:
		return nil, fmt.Errorf("harness: governor %s (%T) is not checkpointable", d.GovName, st.gov)
	}
	if gerr != nil {
		return nil, fmt.Errorf("harness: resume %s: %w", d.GovName, gerr)
	}

	if (st.rec != nil) != (d.Recorder != nil) {
		return nil, fmt.Errorf("harness: resume recorder presence mismatch")
	}
	if d.Recorder != nil {
		if err := st.rec.Restore(*d.Recorder); err != nil {
			return nil, fmt.Errorf("harness: resume: %w", err)
		}
	}

	if d.HasObs {
		o := ro.Obs
		if err := o.Registry().RestoreState(d.Registry); err != nil {
			return nil, fmt.Errorf("harness: resume: %w", err)
		}
		o.Events().RestoreCount(d.EventCount)
		o.SetHealth(obs.Health(d.Health))
		ro := st.sinks.obs
		ro.next = d.RunObs.Next
		ro.lastHealth = resilient.Health(d.RunObs.LastHealth)
		if len(d.RunObs.DeltaLast) != len(ro.deltas) {
			return nil, fmt.Errorf("harness: resume has %d counter deltas, run registered %d",
				len(d.RunObs.DeltaLast), len(ro.deltas))
		}
		for i, del := range ro.deltas {
			del.last = d.RunObs.DeltaLast[i]
		}
		ro.lastTally = d.RunObs.LastTally
		if (ro.do != nil) != (d.DecisionObs != nil) {
			return nil, fmt.Errorf("harness: resume decision-hook presence mismatch")
		}
		if ro.do != nil {
			ro.do.havePrev = d.DecisionObs.HavePrev
			ro.do.prevAt = d.DecisionObs.PrevAt
			ro.do.prevTrend = core.Trend(d.DecisionObs.PrevTrend)
			ro.do.prevPhase = d.DecisionObs.PrevPhase
			ro.do.prevHealth = resilient.Health(d.DecisionObs.PrevHealth)
		}
	}

	if d.Tracer != nil {
		if err := ro.Spans.Restore(d.Tracer); err != nil {
			return nil, fmt.Errorf("harness: resume: %w", err)
		}
		st.sinks.spans.lastPhase = d.SpanLastPhase
	}
	return st, nil
}

// restoreState applies one governor family's captured state, refusing a
// checkpoint that carries none for that family.
func restoreState[S any](st *S, restore func(S) error) error {
	if st == nil {
		return fmt.Errorf("checkpoint carries no %T", st)
	}
	return restore(*st)
}
