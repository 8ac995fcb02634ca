package harness

import (
	"fmt"
	"math"
	"time"

	"github.com/spear-repro/magus/internal/attrib"
	"github.com/spear-repro/magus/internal/faults"
	"github.com/spear-repro/magus/internal/flight"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/pcm"
	"github.com/spear-repro/magus/internal/sim"
	"github.com/spear-repro/magus/internal/telemetry"
	"github.com/spear-repro/magus/internal/workload"
)

// demandSource is the common surface of a single workload runner and a
// co-located multiplexer: the harness drives whichever the run was
// configured with and never needs to know which.
type demandSource interface {
	Step(now, dt time.Duration)
	Demand() workload.Demand
	Done() bool
	Elapsed() time.Duration
	PhaseName() string
}

// Steppable is a single harness run under external clock control: the
// exact wiring Run performs — runner → node demand flow, fault set,
// governor attachment, telemetry, observability, spans — but instead of
// running to completion it advances in caller-chosen virtual-time
// increments. It exists for long-running services (magusd serve) that
// interleave many tenant sessions, each of which must remain
// deterministic and byte-identical to the equivalent Run call.
//
// A Steppable is single-goroutine: like governors, it must not be
// shared across runs, and callers serialise access themselves.
type Steppable struct {
	eng    *sim.Engine
	n      *node.Node
	runner *workload.Runner // single-tenant runs only (nil when colocated)
	mux    *workload.Mux    // co-located runs only (nil otherwise)
	src    demandSource     // whichever of the two drives this run
	meter  *attrib.Meter    // per-tenant energy split (nil unless colocated)
	wname  string           // workload label for results and diagnostics
	gov    governor.Governor
	cfg    node.Config
	prog   *workload.Program
	opt    Options
	fset   *faults.Set
	rec    *telemetry.Recorder
	sinks  *probe // nil when no observation sink is armed

	// env and mons are retained for the checkpoint layer: the governor
	// environment (RAPL reader, limit shadow) and the concrete PCM
	// monitors beneath the fault wrappers.
	env  *governor.Env
	mons *envMonitors

	horizon time.Duration
	done    bool
	res     Result
}

// NewSteppable wires a run without starting it. The governor is
// attached fresh; governors are stateful and must not be reused.
func NewSteppable(cfg node.Config, prog *workload.Program, gov governor.Governor, opt Options) (*Steppable, error) {
	return newSteppable(cfg, prog, gov, opt, false)
}

// newSteppable is NewSteppable plus the resume flag: a resuming run is
// constructed identically (construction-time side effects — Attach MSR
// writes, RAPL unit reads, injector creation — must replay exactly) but
// suppresses the run_start event, since the original run already
// emitted it into the caller's event stream.
func newSteppable(cfg node.Config, prog *workload.Program, gov governor.Governor, opt Options, resuming bool) (*Steppable, error) {
	if !(opt.PCMNoise >= 0) || math.IsInf(opt.PCMNoise, 1) {
		return nil, fmt.Errorf("harness: PCM noise amplitude %v is not a finite non-negative number", opt.PCMNoise)
	}
	eng := sim.NewEngine(opt.Step)
	n := node.New(cfg)

	// A run is driven either by a single workload runner (prog) or by a
	// co-located multiplexer (opt.Tenants), never both. The colocated
	// branch is strictly additive: with opt.Tenants nil the wiring below
	// is byte-for-byte the seed's single-tenant path.
	var (
		runner  *workload.Runner
		mux     *workload.Mux
		src     demandSource
		meter   *attrib.Meter
		wname   string
		nominal time.Duration
	)
	if opt.Tenants != nil {
		if prog != nil {
			return nil, fmt.Errorf("harness: a program and Options.Tenants are mutually exclusive (the colocation supplies its own programs)")
		}
		var err error
		mux, err = workload.NewMux(*opt.Tenants, cfg.SystemBWGBs())
		if err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
		mux.SetAttained(n.AttainedGBs)
		// The node retains the mux's live share slice; the mux mutates
		// it in place each step, so the attribution sampler always sees
		// the current split without per-tick allocation.
		n.SetTenantShares(mux.Shares())
		meter, err = attrib.NewMeter(mux.Tenants())
		if err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
		src, wname, nominal = mux, mux.Name(), mux.NominalDuration()
	} else {
		runner = workload.NewRunner(prog, cfg.SystemBWGBs(), opt.Seed)
		runner.SetAttained(n.AttainedGBs)
		src, wname, nominal = runner, prog.Name, prog.NominalDuration()
	}

	var fset *faults.Set
	if opt.Faults.Armed() {
		if err := opt.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
		fset = faults.NewSet(opt.Faults, eng.Clock().Now)
	}
	// The noise seed is the one the noise study's published numbers
	// were drawn with.
	var noise *pcm.Noise
	if opt.PCMNoise > 0 {
		noise = pcm.NewNoise(opt.PCMNoise, opt.Seed*37+int64(opt.PCMNoise*1000))
	}
	env, mons, err := buildEnv(n, fset, noise)
	if err != nil {
		return nil, err
	}
	if opt.Spans != nil {
		// Intercept uncore-limit writes for MSR-write spans. The
		// wrapper is a pure pass-through, installed after the fault
		// layer so it records what actually reached the hardware.
		env.Dev = &spanMSRDevice{
			inner: env.Dev, tr: opt.Spans,
			now: eng.Clock().Now, cps: cfg.CoresPerSocket,
		}
	}
	if err := gov.Attach(env); err != nil {
		return nil, fmt.Errorf("harness: attach %s: %w", gov.Name(), err)
	}

	horizon := opt.Horizon
	if horizon <= 0 {
		horizon = nominal*4 + 10*time.Second
	}

	// Demand flows source → node each step; the source reads the
	// node's service from the previous step.
	eng.AddComponent(sim.ComponentFunc(func(now, dt time.Duration) {
		src.Step(now, dt)
		n.SetDemand(src.Demand())
	}))
	eng.AddComponent(n)

	// The probe reads state the node just computed, so it follows the
	// node.
	gs := LookupGovernor(gov)
	var sinks *probe
	var rec *telemetry.Recorder
	govFn := gov.Invoke
	if opt.TraceInterval > 0 || meter != nil || opt.Obs != nil || opt.Flight != nil || opt.Spans != nil {
		sinks = &probe{health: gs.Health, fset: fset}
		if opt.TraceInterval > 0 {
			rec = NewNodeRecorder(n, opt.TraceInterval)
			// The nominal horizon bounds the sample count; reserving up
			// front keeps trace appends from reallocating mid run.
			rec.Reserve(int(nominal/opt.TraceInterval) + 2)
			if fset != nil {
				rec.Track("faults_injected", func() float64 { return float64(sinks.t.Total()) })
			}
			if gs.Health != nil {
				rec.Track("sensor_health", func() float64 { return float64(sinks.h) })
			}
			sinks.rec = rec
		}
		if meter != nil {
			sinks.attrib = newAttribSampler(meter, n, mux.Tenants(), opt.Obs)
		}
		if opt.Obs != nil {
			sinks.obs = installObservability(opt, n, gs, gov.Name(), wname, resuming)
		}
		if opt.Flight != nil {
			sinks.flight = &flightObserver{ring: opt.Flight}
			opt.Flight.Record(0, flight.KindMark, "run_start", float64(opt.Seed), 0, 0)
		}
		if opt.Spans != nil {
			sinks.spans = installSpans(opt, n, src, mux, wname, gov, horizon)
			// Every scheduled invocation runs inside a tick span.
			govFn = func(now time.Duration) time.Duration {
				opt.Spans.BeginTick(now)
				return gov.Invoke(now)
			}
		}
		eng.AddComponent(sinks)
		if gs.OnDecision != nil && (sinks.obs != nil || sinks.flight != nil || sinks.spans != nil) {
			gs.OnDecision(sinks.decide)
		}
	}

	eng.AddTask(&sim.Task{Name: gov.Name(), Interval: gov.Interval(), Fn: govFn}, 0)

	return &Steppable{
		eng: eng, n: n, runner: runner, mux: mux, src: src,
		meter: meter, wname: wname, gov: gov,
		cfg: cfg, prog: prog, opt: opt,
		fset: fset, rec: rec, sinks: sinks,
		env: env, mons: mons,
		horizon: horizon,
	}, nil
}

// Now returns the run's current virtual time.
func (s *Steppable) Now() time.Duration { return s.eng.Clock().Now() }

// Done reports whether the workload has completed (and the result
// finalised).
func (s *Steppable) Done() bool { return s.done }

// Node exposes the simulated node for live probes (power, frequency);
// callers must treat it as read-only.
func (s *Steppable) Node() *node.Node { return s.n }

// Horizon returns the safety horizon beyond which Advance refuses to
// run (4× nominal duration + 10 s unless Options.Horizon was set).
func (s *Steppable) Horizon() time.Duration { return s.horizon }

// NextInvocation returns the virtual time of the next scheduled
// governor invocation. Advancing exactly to it leaves the invocation
// pending but unfired — the pre-invoke checkpoint boundary the
// fork-from-prefix planner captures at.
func (s *Steppable) NextInvocation() time.Duration {
	next, _ := s.eng.NextTask()
	return next
}

// Result returns the finalised metrics; valid only once Done reports
// true.
func (s *Steppable) Result() Result { return s.res }

// TenantReport snapshots the live per-tenant energy attribution of a
// co-located run; it may be read mid-run (magusd serve session status)
// and returns nil for single-tenant runs.
func (s *Steppable) TenantReport() *attrib.Report {
	if s.meter == nil {
		return nil
	}
	return s.meter.Report()
}

// Advance runs the simulation forward by up to d of virtual time,
// stopping early when the workload completes — in which case the
// result is finalised exactly as Run would have, and Advance returns
// true. Reaching the safety horizon without completing is an error
// (sim.ErrHorizon, wrapped with the run identity), after which the
// run is stuck: further calls return the same error.
func (s *Steppable) Advance(d time.Duration) (bool, error) {
	if s.done {
		return true, nil
	}
	if d <= 0 {
		return false, nil
	}
	target := s.eng.Clock().Now() + d
	if target > s.horizon {
		target = s.horizon
	}
	// The stop condition includes the target time, so this RunUntil
	// always terminates well inside its own safety horizon.
	s.eng.RunUntil(func() bool {
		return s.src.Done() || s.eng.Clock().Now() >= target
	}, d+time.Second)
	if s.src.Done() {
		s.finish()
		return true, nil
	}
	if s.eng.Clock().Now() >= s.horizon {
		return false, fmt.Errorf("harness: %s/%s/%s: %w",
			s.cfg.Name, s.wname, s.gov.Name(), sim.ErrHorizon)
	}
	return false, nil
}

// Tick advances the run by exactly one engine step, for a lockstep
// driver that owns completion and the horizon itself (the cluster
// shard). Unlike Advance it ignores the horizon, keeps stepping after
// the workload completes — the node integrates idle power and the
// governor keeps firing, as inside one engine shared with unfinished
// runs — and never finalises: Done stays false and Result stays zero.
// Do not mix Tick with Advance on one run.
func (s *Steppable) Tick() { s.eng.Tick() }

// WorkloadDone reports whether the workload has completed, whether or
// not the result has been finalised.
func (s *Steppable) WorkloadDone() bool { return s.src.Done() }

// finish finalises the result, mirroring the tail of Run.
func (s *Steppable) finish() Result {
	s.opt.Spans.Finish(s.eng.Clock().Now())

	runtime := s.src.Elapsed().Seconds()
	pkgJ, drmJ, gpuJ := s.n.EnergyJ()
	res := Result{
		System:      s.cfg.Name,
		Workload:    s.wname,
		Governor:    s.gov.Name(),
		RuntimeS:    runtime,
		PkgEnergyJ:  pkgJ,
		DramEnergyJ: drmJ,
		GPUEnergyJ:  gpuJ,
		Traces:      s.rec,
	}
	if runtime > 0 {
		res.AvgCPUPowerW = (pkgJ + drmJ) / runtime
	}
	if s.fset != nil {
		res.FaultsInjected = s.fset.Tally()
	}
	if s.meter != nil {
		res.Tenants = s.meter.Report()
	}
	if s.opt.Obs != nil {
		h, t := s.sinks.read()
		s.sinks.obs.finish(s.eng.Clock().Now(), res, h, t)
	}
	s.opt.Flight.Record(s.eng.Clock().Now().Seconds(), flight.KindMark, "run_end",
		res.RuntimeS, res.TotalEnergyJ(), 0)
	s.done = true
	s.res = res
	return res
}
