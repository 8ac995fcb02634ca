package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/spear-repro/magus/internal/core"
	"github.com/spear-repro/magus/internal/harness"
	"github.com/spear-repro/magus/internal/node"
	"github.com/spear-repro/magus/internal/workload"
)

// fakeClock is an injectable wall clock for idle-expiry tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	mg := NewManager(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		mg.Close(ctx)
	})
	return mg
}

func createSession(t *testing.T, mg *Manager, tenant string) Status {
	t.Helper()
	st, err := mg.Create(Spec{Tenant: tenant, Workload: "bfs"})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// stepToDone drives a session to completion and returns the final step.
func stepToDone(t *testing.T, mg *Manager, id string) StepResult {
	t.Helper()
	for i := 0; i < 1000; i++ {
		res, err := mg.Step(id, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if res.Done {
			return res
		}
	}
	t.Fatal("session never completed")
	return StepResult{}
}

// TestSessionMatchesHarnessRun pins the tenancy contract: a session
// stepped over the API produces the identical result of the equivalent
// direct harness.Run.
func TestSessionMatchesHarnessRun(t *testing.T) {
	prog, _ := workload.ByName("bfs")
	want, err := harness.Run(node.IntelA100(), prog, core.New(core.DefaultConfig()), harness.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}

	mg := newTestManager(t, Config{})
	st, err := mg.Create(Spec{Tenant: "t0", Workload: "bfs", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res := stepToDone(t, mg, st.ID)
	if res.Result == nil {
		t.Fatal("no result on final step")
	}
	if res.Result.RuntimeS != want.RuntimeS || res.Result.TotalEnergyJ != want.TotalEnergyJ() {
		t.Fatalf("served run diverged: %+v vs runtime %v energy %v",
			res.Result, want.RuntimeS, want.TotalEnergyJ())
	}

	// The completed session stays queryable until closed.
	got, err := mg.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != "done" || got.Result == nil {
		t.Fatalf("status after completion = %+v", got)
	}
	if err := mg.CloseSession(st.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := mg.Get(st.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after close = %v, want ErrNotFound", err)
	}
}

// TestAdmissionLimit pins bounded admission: creates beyond
// MaxSessions fail fast with ErrSessionLimit and closing a session
// frees the slot.
func TestAdmissionLimit(t *testing.T) {
	mg := newTestManager(t, Config{MaxSessions: 2})
	a := createSession(t, mg, "a")
	createSession(t, mg, "b")
	if _, err := mg.Create(Spec{Tenant: "c", Workload: "bfs"}); !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("third create = %v, want ErrSessionLimit", err)
	}
	if got := mg.Metrics().rejectedFull.Value(); got != 1 {
		t.Fatalf("rejected counter = %v, want 1", got)
	}
	if err := mg.CloseSession(a.ID); err != nil {
		t.Fatal(err)
	}
	createSession(t, mg, "c")
}

// TestBackpressureSheds pins the bounded queue: with every inflight
// slot blocked and the queue full, further work sheds immediately with
// ErrOverloaded instead of queueing forever.
func TestBackpressureSheds(t *testing.T) {
	mg := newTestManager(t, Config{MaxInflight: 1, MaxQueue: 1})
	st := createSession(t, mg, "t")
	s, err := mg.lookup(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	entered := make(chan struct{})
	s.stepHook = func() {
		close(entered)
		<-block
	}

	stepErr := make(chan error, 1)
	go func() {
		_, err := mg.Step(st.ID, time.Second)
		stepErr <- err
	}()
	<-entered // the single inflight slot is now held

	// One waiter fits the queue; it must park, not fail.
	queuedErr := make(chan error, 1)
	go func() {
		_, err := mg.Step(st.ID, time.Second)
		queuedErr <- err
	}()
	waitFor(t, func() bool { return mg.queued.Load() == 1 })

	// The next request overflows the bounded queue and sheds.
	if _, err := mg.Step(st.ID, time.Second); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow step = %v, want ErrOverloaded", err)
	}
	if got := mg.Metrics().shed.Value(); got != 1 {
		t.Fatalf("shed counter = %v, want 1", got)
	}

	s.stepHook = nil
	close(block)
	if err := <-stepErr; err != nil {
		t.Fatal(err)
	}
	if err := <-queuedErr; err != nil {
		t.Fatal(err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPanicIsolation pins graceful degradation: a panicking tenant is
// marked failed/lost and keeps answering with ErrSessionFailed, while
// other tenants keep stepping and service health stays up.
func TestPanicIsolation(t *testing.T) {
	mg := newTestManager(t, Config{})
	bad := createSession(t, mg, "bad")
	good := createSession(t, mg, "good")

	s, err := mg.lookup(bad.ID)
	if err != nil {
		t.Fatal(err)
	}
	s.stepHook = func() { panic("injected tenant panic") }

	if _, err := mg.Step(bad.ID, time.Second); !errors.Is(err, ErrSessionFailed) {
		t.Fatalf("panicking step = %v, want ErrSessionFailed", err)
	}
	// The failure is sticky, even with the hook gone.
	s.stepHook = nil
	if _, err := mg.Step(bad.ID, time.Second); !errors.Is(err, ErrSessionFailed) {
		t.Fatalf("step after panic = %v, want ErrSessionFailed", err)
	}
	st, err := mg.Get(bad.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "failed" || st.Health != "lost" || !strings.Contains(st.Error, "injected tenant panic") {
		t.Fatalf("failed session status = %+v", st)
	}

	// The other tenant is untouched...
	if _, err := mg.Step(good.ID, time.Second); err != nil {
		t.Fatalf("healthy tenant blocked by neighbour panic: %v", err)
	}
	// ...and the service stays up: one lost tenant is tenant-level
	// state, not a service outage.
	h := mg.Health()
	if h.Status != "ok" || h.Lost != 1 || h.Worst != "lost" {
		t.Fatalf("service health = %+v", h)
	}
}

// TestIdleExpiry pins the reaper: sessions idle past IdleExpiry are
// closed, active ones stay.
func TestIdleExpiry(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	mg := newTestManager(t, Config{
		// IdleExpiry < 0 keeps the background loop off; reapOnce is
		// driven by hand against the fake clock.
		IdleExpiry: -1,
		Clock:      clk.now,
	})
	mg.cfg.IdleExpiry = time.Minute

	idle := createSession(t, mg, "idle")
	active := createSession(t, mg, "active")

	clk.advance(2 * time.Minute)
	if _, err := mg.Step(active.ID, time.Second); err != nil { // refreshes lastActive
		t.Fatal(err)
	}
	mg.reapOnce()

	if _, err := mg.Get(idle.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("idle session survived the reaper: %v", err)
	}
	if _, err := mg.Get(active.ID); err != nil {
		t.Fatalf("active session reaped: %v", err)
	}
	if got := mg.Metrics().reaped.Value(); got != 1 {
		t.Fatalf("reaped counter = %v, want 1", got)
	}
}

// TestWatchdogDegrades pins the per-step wall watchdog: repeated
// budget overruns mark the session degraded without killing it.
func TestWatchdogDegrades(t *testing.T) {
	mg := newTestManager(t, Config{StepWallBudget: time.Nanosecond})
	st := createSession(t, mg, "slow")
	s, _ := mg.lookup(st.ID)
	s.stepHook = func() { time.Sleep(100 * time.Microsecond) }

	for i := 0; i < watchdogDegradeAfter; i++ {
		if _, err := mg.Step(st.ID, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	got, err := mg.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Health != "degraded" || got.StepOverruns < watchdogDegradeAfter {
		t.Fatalf("status after overruns = %+v", got)
	}
	if got.State != "running" {
		t.Fatalf("watchdog killed the session: state %q", got.State)
	}
}

// TestDrain pins graceful shutdown: Close rejects queued waiters and
// new work with ErrDraining, waits for in-flight work, and empties the
// session table.
func TestDrain(t *testing.T) {
	mg := NewManager(Config{MaxInflight: 1, MaxQueue: 4})
	st, err := mg.Create(Spec{Tenant: "t", Workload: "bfs"})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := mg.lookup(st.ID)
	block := make(chan struct{})
	entered := make(chan struct{})
	s.stepHook = func() {
		close(entered)
		<-block
	}

	inflightErr := make(chan error, 1)
	go func() {
		_, err := mg.Step(st.ID, time.Second)
		inflightErr <- err
	}()
	<-entered

	queuedErr := make(chan error, 1)
	go func() {
		_, err := mg.Step(st.ID, time.Second)
		queuedErr <- err
	}()
	waitFor(t, func() bool { return mg.queued.Load() == 1 })

	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		closed <- mg.Close(ctx)
	}()

	// The queued waiter must be released with ErrDraining promptly,
	// while the in-flight step is still running.
	if err := <-queuedErr; !errors.Is(err, ErrDraining) {
		t.Fatalf("queued waiter = %v, want ErrDraining", err)
	}
	// New work is rejected immediately.
	if _, err := mg.Create(Spec{Tenant: "late", Workload: "bfs"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("create during drain = %v, want ErrDraining", err)
	}

	s.stepHook = nil
	close(block) // let the in-flight step finish
	if err := <-inflightErr; err != nil {
		t.Fatalf("in-flight step failed: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("drain = %v", err)
	}
	if h := mg.Health(); h.Sessions != 0 || !h.Draining || h.Status != "draining" {
		t.Fatalf("post-drain health = %+v", h)
	}
	// Close is idempotent.
	if err := mg.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDrainDeadline pins that a wedged in-flight request cannot hold
// shutdown hostage past the deadline.
func TestDrainDeadline(t *testing.T) {
	mg := NewManager(Config{MaxInflight: 1})
	st, err := mg.Create(Spec{Tenant: "t", Workload: "bfs"})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := mg.lookup(st.ID)
	block := make(chan struct{})
	entered := make(chan struct{})
	s.stepHook = func() {
		close(entered)
		<-block
	}
	go mg.Step(st.ID, time.Second)
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := mg.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wedged drain = %v, want DeadlineExceeded", err)
	}
	close(block)
}

// TestBadSpecs pins spec validation end to end.
func TestBadSpecs(t *testing.T) {
	mg := newTestManager(t, Config{})
	cases := []Spec{
		{},
		{Tenant: "t"},
		{Tenant: "t", Workload: "no-such-workload"},
		{Tenant: "t", Workload: "bfs", System: "cray"},
		{Tenant: "t", Workload: "bfs", Governor: "turbo"},
		{Tenant: "t", Workload: "bfs", Faults: "no-such-preset"},
		{Tenant: "t", Workload: "bfs", Faults: "nvml-stale"},
		{Tenant: "t", Workload: "bfs", PowerCapW: -5},
	}
	for i, sp := range cases {
		if _, err := mg.Create(sp); !errors.Is(err, ErrBadSpec) {
			t.Errorf("case %d (%+v): err = %v, want ErrBadSpec", i, sp, err)
		}
	}
	if got := mg.Metrics().badSpec.Value(); got != float64(len(cases)) {
		t.Fatalf("bad-spec counter = %v, want %d", got, len(cases))
	}
}

// TestWasteLedger pins the PR 5 integration: a session created with
// waste attribution reports a coherent joule decomposition.
func TestWasteLedger(t *testing.T) {
	mg := newTestManager(t, Config{})
	st, err := mg.Create(Spec{Tenant: "t", Workload: "bfs", Governor: "magus", Waste: true})
	if err != nil {
		t.Fatal(err)
	}
	stepToDone(t, mg, st.ID)
	got, err := mg.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Waste == nil {
		t.Fatal("no waste attribution on a waste-armed session")
	}
	w := got.Waste
	sum := w.BaselineJ + w.UsefulJ + w.WasteJ
	if w.TotalJ <= 0 || sum <= 0 {
		t.Fatalf("degenerate ledger: %+v", w)
	}
	if diff := sum - w.TotalJ; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("ledger does not decompose: %v + %v + %v != %v", w.BaselineJ, w.UsefulJ, w.WasteJ, w.TotalJ)
	}
	if w.WasteFrac < 0 || w.WasteFrac > 1 {
		t.Fatalf("waste fraction %v out of [0,1]", w.WasteFrac)
	}
}

// TestFaultedSession pins that a fault-armed session degrades and
// recovers per-tenant without affecting its neighbours.
func TestFaultedSession(t *testing.T) {
	mg := newTestManager(t, Config{})
	faulted, err := mg.Create(Spec{Tenant: "f", Workload: "bfs", Governor: "magus", Faults: "pcm-flaky", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	clean := createSession(t, mg, "clean")

	res := stepToDone(t, mg, faulted.ID)
	if res.Result.FaultsFired == 0 {
		t.Fatal("fault-armed session saw no injections")
	}
	st, _ := mg.Get(faulted.ID)
	if st.Stats == nil || st.Stats.MissedSamples == 0 {
		t.Fatalf("faulted session stats = %+v", st.Stats)
	}

	cleanRes := stepToDone(t, mg, clean.ID)
	if cleanRes.Result.FaultsFired != 0 {
		t.Fatal("fault injection leaked into a clean session")
	}
}

// TestStepClamped pins that an oversized step request is clamped to
// MaxStep rather than rejected or run unbounded.
func TestStepClamped(t *testing.T) {
	mg := newTestManager(t, Config{MaxStep: time.Second})
	st := createSession(t, mg, "t")
	res, err := mg.Step(st.ID, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if res.NowS > 1.001 {
		t.Fatalf("step ran %v s virtual, want clamp at 1 s", res.NowS)
	}
}

// TestListOrder pins the deterministic listing.
func TestListOrder(t *testing.T) {
	mg := newTestManager(t, Config{})
	createSession(t, mg, "a")
	createSession(t, mg, "b")
	createSession(t, mg, "c")
	l := mg.List()
	if len(l) != 3 {
		t.Fatalf("len = %d", len(l))
	}
	for i := 1; i < len(l); i++ {
		if l[i-1].ID >= l[i].ID {
			t.Fatalf("list not ordered: %v", l)
		}
	}
}
