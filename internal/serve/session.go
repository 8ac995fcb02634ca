package serve

import (
	"cmp"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/faults"
	"github.com/spear-repro/magus/internal/flight"
	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/harness"
	"github.com/spear-repro/magus/internal/resilient"
	"github.com/spear-repro/magus/internal/spans"
	"github.com/spear-repro/magus/internal/workload"
)

// Spec describes one tenant session: which node preset to simulate,
// which workload it executes, and which governor polices its uncore.
type Spec struct {
	// Tenant labels the session's owner; required.
	Tenant string `json:"tenant"`
	// System is a node preset: a100 (default), 4a100, max1550, cpuonly.
	System string `json:"system,omitempty"`
	// Workload is a catalog application name; required.
	Workload string `json:"workload"`
	// Governor: magus (default), ups, duf, default, max, min.
	Governor string `json:"governor,omitempty"`
	// Seed drives the workload's pseudo-random modulation (0 = 1).
	Seed int64 `json:"seed,omitempty"`
	// Faults arms a named fault preset against the session's telemetry
	// devices. Only preset names are accepted — a network service never
	// opens request-supplied file paths.
	Faults string `json:"faults,omitempty"`
	// PowerCapW composes a per-socket RAPL PL1 cap with the governor.
	PowerCapW float64 `json:"power_cap_w,omitempty"`
	// Waste arms the PR 5 attribution ledger; Status then carries the
	// session's baseline/useful/waste joule decomposition.
	Waste bool `json:"waste,omitempty"`
	// Colocate runs several workloads in this session through the
	// time-slicing multiplexer with per-tenant energy attribution;
	// when set, Workload must be empty (each tenant names its own) and
	// Status carries a per-tenant attribution row per entry.
	Colocate []ColocateTenant `json:"colocate,omitempty"`
	// Policy selects the colocation sharing policy: "round-robin"
	// (default) or "fractional".
	Policy string `json:"policy,omitempty"`
	// QuantumMS is the round-robin slice in milliseconds (0 = 10 ms).
	QuantumMS int `json:"quantum_ms,omitempty"`
	// ChaosStep arms a chaos drill: the session panics inside its Nth
	// step request (1-based), exercising the daemon's panic containment
	// and the flight recorder's crash dump. Rejected unless the
	// operator started the daemon with -chaos (Config.AllowChaos); the
	// injected panic is contained like any other, so only this session
	// is lost.
	ChaosStep int `json:"chaos_step,omitempty"`
}

// ColocateTenant is one tenant of a co-located session spec.
type ColocateTenant struct {
	// Tenant labels the attribution bucket; required and unique.
	Tenant string `json:"tenant"`
	// Workload is the tenant's catalog application name; required.
	Workload string `json:"workload"`
	// Seed drives the tenant's pseudo-random modulation (0 = session seed).
	Seed int64 `json:"seed,omitempty"`
	// GPUFrac is the tenant's fractional GPU allocation under the
	// fractional policy (0 = equal share).
	GPUFrac float64 `json:"gpu_frac,omitempty"`
}

// validate normalises and checks the spec.
func (sp *Spec) validate() error {
	sp.Tenant = strings.TrimSpace(sp.Tenant)
	if sp.Tenant == "" {
		return fmt.Errorf("%w: missing tenant", ErrBadSpec)
	}
	if len(sp.Colocate) > 0 {
		if sp.Workload != "" {
			return fmt.Errorf("%w: workload and colocate are mutually exclusive", ErrBadSpec)
		}
		if _, err := colocatePolicy(sp.Policy); err != nil {
			return err
		}
		if sp.QuantumMS < 0 {
			return fmt.Errorf("%w: negative colocation quantum", ErrBadSpec)
		}
	} else {
		if sp.Workload == "" {
			return fmt.Errorf("%w: missing workload", ErrBadSpec)
		}
		if sp.Policy != "" || sp.QuantumMS != 0 {
			return fmt.Errorf("%w: policy/quantum_ms require colocate", ErrBadSpec)
		}
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.PowerCapW < 0 {
		return fmt.Errorf("%w: negative power cap", ErrBadSpec)
	}
	if sp.ChaosStep < 0 {
		return fmt.Errorf("%w: negative chaos_step", ErrBadSpec)
	}
	return nil
}

// colocatePolicy maps a spec's policy name onto the multiplexer's.
func colocatePolicy(name string) (workload.MuxPolicy, error) {
	switch name {
	case "", "round-robin", "rr":
		return workload.RoundRobin, nil
	case "fractional":
		return workload.Fractional, nil
	}
	return 0, fmt.Errorf("%w: unknown colocation policy %q", ErrBadSpec, name)
}

// sessionState is the session lifecycle (orthogonal to sensor health).
type sessionState int32

const (
	stateRunning sessionState = iota
	stateDone
	stateFailed
)

func (s sessionState) String() string {
	switch s {
	case stateDone:
		return "done"
	case stateFailed:
		return "failed"
	default:
		return "running"
	}
}

// maxPendingDecisions bounds the per-step decision backlog a client
// can be handed (and the memory a never-polled hook can pin).
const maxPendingDecisions = 256

// Session is one tenant's deterministic governor run. All simulation
// access is serialised under mu; the pub* atomics republish coarse
// state so /healthz and List never block behind a stepping tenant.
type Session struct {
	ID   string
	Spec Spec

	wlabel string // workload display label ("colocated(...)" for multi-tenant)

	mu      sync.Mutex
	st      *harness.Steppable
	gov     governor.Governor
	surf    harness.GovernorSurfaces // counters, health, decisions
	tracer  *spans.Tracer
	pending []core.Decision // decisions since the last step response
	dropped uint64          // pending overflow

	// ring is the session's always-on flight recorder (nil when the
	// operator disabled it with a negative FlightCap); dumpOnce keeps
	// the manager from rewriting a failed session's postmortem files.
	ring     *flight.Ring
	dumpOnce sync.Once

	created    time.Time
	lastActive atomic.Int64 // unix nanos
	steps      uint64
	wdOverruns uint64
	wdDegraded bool
	failErr    error

	pubHealth atomic.Int32 // resilient.Health
	pubState  atomic.Int32 // sessionState
	pubNow    atomic.Int64 // virtual nanos

	// stepHook, when set, runs inside the panic guard before each
	// advance. Tests use it to inject panics and to block in-flight
	// work; nil in production.
	stepHook func()
}

// newSession wires a steppable harness run for spec. The returned
// session has not advanced past t=0. cfg supplies the operator-level
// knobs a client must not control: the flight-ring capacity and the
// chaos admission already enforced by Manager.Create.
func newSession(id string, spec Spec, now time.Time, svc Config) (*Session, error) {
	cfg, err := harness.SystemByName(cmp.Or(spec.System, "a100"))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	var prog *workload.Program
	var muxSpec *workload.MuxSpec
	wlabel := spec.Workload
	if len(spec.Colocate) > 0 {
		policy, perr := colocatePolicy(spec.Policy)
		if perr != nil {
			return nil, perr
		}
		ms := &workload.MuxSpec{
			Policy:  policy,
			Quantum: time.Duration(spec.QuantumMS) * time.Millisecond,
		}
		labels := make([]string, 0, len(spec.Colocate))
		for _, t := range spec.Colocate {
			p, ok := workload.ByName(t.Workload)
			if !ok {
				return nil, fmt.Errorf("%w: unknown workload %q", ErrBadSpec, t.Workload)
			}
			seed := t.Seed
			if seed == 0 {
				seed = spec.Seed
			}
			ms.Tenants = append(ms.Tenants, workload.TenantSpec{
				Tenant: t.Tenant, Program: p, Seed: seed, GPUFrac: t.GPUFrac,
			})
			labels = append(labels, t.Tenant+":"+t.Workload)
		}
		muxSpec = ms
		wlabel = "colocated(" + strings.Join(labels, "+") + ")"
	} else {
		p, ok := workload.ByName(spec.Workload)
		if !ok {
			return nil, fmt.Errorf("%w: unknown workload %q", ErrBadSpec, spec.Workload)
		}
		prog = p
	}
	gov, err := harness.GovernorByName(cmp.Or(spec.Governor, "magus"), cfg)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if spec.PowerCapW > 0 {
		gov = governor.WithPowerCap(gov, spec.PowerCapW)
	}

	opt := harness.Options{Seed: spec.Seed, Tenants: muxSpec}
	if spec.Faults != "" {
		plan, ok := faults.Preset(spec.Faults)
		if !ok {
			return nil, fmt.Errorf("%w: unknown fault preset %q (have: %s)",
				ErrBadSpec, spec.Faults, strings.Join(faults.PresetNames(), ", "))
		}
		plan.Seed = spec.Seed
		opt.Faults = plan
	}
	var tracer *spans.Tracer
	if spec.Waste {
		tracer = spans.New(core.DefaultConfig().Window)
		opt.Spans = tracer
	}
	var ring *flight.Ring
	if svc.FlightCap > 0 {
		ring = flight.NewRing(svc.FlightCap)
		opt.Flight = ring
	}

	s := &Session{ID: id, Spec: spec, gov: gov, tracer: tracer, ring: ring, created: now, wlabel: wlabel}
	s.lastActive.Store(now.UnixNano())
	if spec.ChaosStep > 0 {
		// Admission (AllowChaos) was checked by the manager; the hook
		// panics inside advanceGuarded's recover like any tenant bug
		// would.
		steps := 0
		s.stepHook = func() {
			steps++
			if steps >= spec.ChaosStep {
				panic(fmt.Sprintf("chaos drill: injected panic at step %d", steps))
			}
		}
	}

	// Counters, health and decisions come from the harness's governor
	// lookup, which sees through a power cap.
	s.surf = harness.LookupGovernor(gov)
	if s.surf.OnDecision != nil {
		// The hook fires inside Advance, which only runs under s.mu.
		s.surf.OnDecision(func(d core.Decision) {
			if len(s.pending) >= maxPendingDecisions {
				copy(s.pending, s.pending[1:])
				s.pending = s.pending[:maxPendingDecisions-1]
				s.dropped++
			}
			s.pending = append(s.pending, d)
		})
	}

	st, err := harness.NewSteppable(cfg, prog, gov, opt)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	s.st = st
	s.publishLocked()
	return s, nil
}

// healthLocked reduces the session's effective health: a failed session
// is lost, a watchdog-degraded one at least degraded, otherwise the
// governor's own sensor state.
func (s *Session) healthLocked() resilient.Health {
	if s.failErr != nil {
		return resilient.Lost
	}
	h := resilient.Healthy
	if s.surf.Health != nil {
		h = s.surf.Health()
	}
	if s.wdDegraded {
		h = resilient.Worst(h, resilient.Degraded)
	}
	return h
}

// stateLocked returns the lifecycle state.
func (s *Session) stateLocked() sessionState {
	switch {
	case s.failErr != nil:
		return stateFailed
	case s.st.Done():
		return stateDone
	default:
		return stateRunning
	}
}

// publishLocked republishes the coarse atomics for lock-free readers.
func (s *Session) publishLocked() {
	s.pubHealth.Store(int32(s.healthLocked()))
	s.pubState.Store(int32(s.stateLocked()))
	s.pubNow.Store(int64(s.st.Now()))
}

// fail marks the session failed (idempotent); callers hold mu. The
// failure lands in the flight ring as the terminal record, so the
// postmortem dump ends with what killed the session (A = steps served
// before the fatal one).
func (s *Session) failLocked(err error) {
	if s.failErr == nil {
		s.failErr = err
		s.ring.Record(s.st.Now().Seconds(), flight.KindPanic, "session_failed",
			float64(s.steps), 0, 0)
	}
}

// DecisionJSON is one governor decision in API responses.
type DecisionJSON struct {
	AtS       float64 `json:"at_s"`
	MemGBs    float64 `json:"mem_gbs"`
	Trend     string  `json:"trend"`
	TargetGHz float64 `json:"target_ghz"`
	PrevGHz   float64 `json:"prev_ghz"`
	Acted     bool    `json:"acted"`
	Reason    string  `json:"reason"`
	Health    string  `json:"health"`
}

func decisionJSON(d core.Decision) DecisionJSON {
	return DecisionJSON{
		AtS:       d.At.Seconds(),
		MemGBs:    d.ThroughputGBs,
		Trend:     d.Trend.String(),
		TargetGHz: d.TargetGHz,
		PrevGHz:   d.PrevGHz,
		Acted:     d.Acted,
		Reason:    d.Reason,
		Health:    d.SensorHealth.String(),
	}
}

// StatsJSON is the governor-counter snapshot in Status responses.
type StatsJSON struct {
	Invocations       uint64 `json:"invocations"`
	TuneEvents        uint64 `json:"tune_events"`
	HighFreqOverrides uint64 `json:"highfreq_overrides"`
	MSRWrites         uint64 `json:"msr_writes"`
	MissedSamples     uint64 `json:"missed_samples"`
	DegradedCycles    uint64 `json:"degraded_cycles"`
	LostCycles        uint64 `json:"lost_cycles"`
	Recoveries        uint64 `json:"recoveries"`
	WatchdogOverruns  uint64 `json:"watchdog_overruns"`
}

// WasteJSON is the attribution-ledger decomposition in Status
// responses (sessions created with "waste": true).
type WasteJSON struct {
	BaselineJ float64 `json:"baseline_j"`
	UsefulJ   float64 `json:"useful_j"`
	WasteJ    float64 `json:"waste_j"`
	TotalJ    float64 `json:"total_j"`
	WasteFrac float64 `json:"waste_frac"`
}

// TenantJSON is one tenant's energy attribution row in Status
// responses (co-located sessions). Estimated carries the DCGM-style
// label: false means every joule was measured under exclusive
// ownership, true means utilisation-share estimation contributed.
type TenantJSON struct {
	Tenant     string  `json:"tenant"`
	ExactJ     float64 `json:"exact_j"`
	EstimatedJ float64 `json:"estimated_j"`
	TotalJ     float64 `json:"total_j"`
	Estimated  bool    `json:"estimated"`
}

// AttributionJSON is the per-tenant energy split of a co-located
// session, live from session creation onward.
type AttributionJSON struct {
	Tenants []TenantJSON `json:"tenants"`
	// TotalJ is the independently integrated node energy the tenant
	// rows balance against; Balanced reports that invariant at the
	// report's sample-scaled ulp tolerance.
	TotalJ   float64 `json:"total_j"`
	Balanced bool    `json:"balanced"`
}

// ResultJSON is the finalised run outcome of a completed session.
type ResultJSON struct {
	RuntimeS     float64 `json:"runtime_s"`
	AvgCPUPowerW float64 `json:"avg_cpu_w"`
	PkgEnergyJ   float64 `json:"pkg_j"`
	DramEnergyJ  float64 `json:"dram_j"`
	GPUEnergyJ   float64 `json:"gpu_j"`
	TotalEnergyJ float64 `json:"total_j"`
	FaultsFired  uint64  `json:"faults_fired,omitempty"`
}

// Status is one session's externally visible state.
type Status struct {
	ID       string  `json:"id"`
	Tenant   string  `json:"tenant"`
	System   string  `json:"system"`
	Workload string  `json:"workload"`
	Governor string  `json:"governor"`
	State    string  `json:"state"`
	Health   string  `json:"health"`
	NowS     float64 `json:"now_s"`
	HorizonS float64 `json:"horizon_s"`
	Steps    uint64  `json:"steps"`
	IdleS    float64 `json:"idle_s"`
	Faults   string  `json:"faults,omitempty"`
	// StepOverruns counts steps that blew the serve-layer wall-clock
	// watchdog budget (distinct from the governor's own virtual-time
	// sensor watchdog in Stats).
	StepOverruns uint64 `json:"step_overruns,omitempty"`
	Error        string `json:"error,omitempty"`

	Stats       *StatsJSON       `json:"stats,omitempty"`
	Waste       *WasteJSON       `json:"waste,omitempty"`
	Attribution *AttributionJSON `json:"attribution,omitempty"`
	Result      *ResultJSON      `json:"result,omitempty"`
}

// StepResult is the outcome of one step request.
type StepResult struct {
	ID               string         `json:"id"`
	NowS             float64        `json:"now_s"`
	Done             bool           `json:"done"`
	Health           string         `json:"health"`
	Decisions        []DecisionJSON `json:"decisions,omitempty"`
	DecisionsDropped uint64         `json:"decisions_dropped,omitempty"`
	Result           *ResultJSON    `json:"result,omitempty"`
}

// statusLocked snapshots the session; callers hold mu.
func (s *Session) statusLocked(now time.Time) Status {
	st := Status{
		ID:       s.ID,
		Tenant:   s.Spec.Tenant,
		System:   s.st.Node().Config().Name,
		Workload: s.wlabel,
		Governor: s.gov.Name(),
		State:    s.stateLocked().String(),
		Health:   s.healthLocked().String(),
		NowS:     s.st.Now().Seconds(),
		HorizonS: s.st.Horizon().Seconds(),
		Steps:    s.steps,
		IdleS:    now.Sub(time.Unix(0, s.lastActive.Load())).Seconds(),
		Faults:   s.Spec.Faults,

		StepOverruns: s.wdOverruns,
	}
	if s.failErr != nil {
		st.Error = s.failErr.Error()
	}
	if s.surf.Stats != nil {
		c := s.surf.Stats()
		st.Stats = &StatsJSON{
			Invocations:       c.Invocations,
			TuneEvents:        c.TuneEvents,
			HighFreqOverrides: c.Overrides,
			MSRWrites:         c.MSRWrites,
			MissedSamples:     c.MissedSamples,
			DegradedCycles:    c.DegradedCycles,
			LostCycles:        c.LostCycles,
			Recoveries:        c.Recoveries,
			WatchdogOverruns:  c.WatchdogOverruns,
		}
	}
	if s.tracer != nil {
		run := s.tracer.Ledger().Run()
		st.Waste = &WasteJSON{
			BaselineJ: run.BaselineJ,
			UsefulJ:   run.UsefulJ,
			WasteJ:    run.WasteJ,
			TotalJ:    run.TotalJ,
			WasteFrac: run.WasteFrac(),
		}
	}
	if rep := s.st.TenantReport(); rep != nil {
		a := &AttributionJSON{
			TotalJ:   rep.TotalJ,
			Balanced: rep.Balanced(rep.BalanceTol()),
		}
		for _, t := range rep.Tenants {
			a.Tenants = append(a.Tenants, TenantJSON{
				Tenant:     t.Tenant,
				ExactJ:     t.ExactJ,
				EstimatedJ: t.EstimatedJ,
				TotalJ:     t.TotalJ(),
				Estimated:  t.Estimated(),
			})
		}
		st.Attribution = a
	}
	if s.st.Done() {
		st.Result = resultJSON(s.st.Result())
	}
	return st
}

// watchdogDegradeAfter is how many wall-clock step overruns mark a
// session degraded. One overrun can be scheduler noise; a streak means
// the tenant's workload is too expensive for its configured budget.
const watchdogDegradeAfter = 3

// step advances the session by up to d of virtual time under its lock.
// A panic inside the simulation is contained here: the session is
// marked failed and every later request gets ErrSessionFailed, while
// all other tenants keep running. wallBudget > 0 arms the per-step
// watchdog. Stepping a completed session is idempotent and returns the
// finalised result.
func (s *Session) step(d, wallBudget time.Duration, now time.Time) (StepResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastActive.Store(now.UnixNano())
	defer s.publishLocked()

	if s.failErr != nil {
		return StepResult{}, fmt.Errorf("%w: %v", ErrSessionFailed, s.failErr)
	}
	if !s.st.Done() {
		start := time.Now()
		_, err := s.advanceGuarded(d)
		if wallBudget > 0 && time.Since(start) > wallBudget {
			s.wdOverruns++
			if s.wdOverruns >= watchdogDegradeAfter {
				s.wdDegraded = true
			}
		}
		if err != nil {
			s.failLocked(err)
			return StepResult{}, fmt.Errorf("%w: %v", ErrSessionFailed, err)
		}
		s.steps++
	}
	return s.stepResultLocked(), nil
}

// advanceGuarded is the only place tenant simulation code runs; the
// recover turns a panicking governor or workload into an error instead
// of a daemon crash.
func (s *Session) advanceGuarded(d time.Duration) (done bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if s.stepHook != nil {
		s.stepHook()
	}
	return s.st.Advance(d)
}

// stepResultLocked assembles a step response and drains the pending
// decision backlog.
func (s *Session) stepResultLocked() StepResult {
	res := StepResult{
		ID:               s.ID,
		NowS:             s.st.Now().Seconds(),
		Done:             s.st.Done(),
		Health:           s.healthLocked().String(),
		DecisionsDropped: s.dropped,
	}
	if len(s.pending) > 0 {
		res.Decisions = make([]DecisionJSON, len(s.pending))
		for i, d := range s.pending {
			res.Decisions[i] = decisionJSON(d)
		}
		s.pending = s.pending[:0]
	}
	s.dropped = 0
	if res.Done {
		res.Result = resultJSON(s.st.Result())
	}
	return res
}

// status snapshots the session for GET requests.
func (s *Session) status(now time.Time) Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked(now)
}

func resultJSON(r harness.Result) *ResultJSON {
	return &ResultJSON{
		RuntimeS:     r.RuntimeS,
		AvgCPUPowerW: r.AvgCPUPowerW,
		PkgEnergyJ:   r.PkgEnergyJ,
		DramEnergyJ:  r.DramEnergyJ,
		GPUEnergyJ:   r.GPUEnergyJ,
		TotalEnergyJ: r.TotalEnergyJ(),
		FaultsFired:  r.FaultsInjected.Total(),
	}
}
