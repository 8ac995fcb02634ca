package sim

import (
	"errors"
	"fmt"
	"time"
)

// DefaultStep is the engine's default integration timestep. One
// millisecond resolves the fastest dynamics in the model (governor
// invocation windows of 100 ms, workload fluctuation periods down to a
// few ms) with comfortable margin.
const DefaultStep = time.Millisecond

// Component is a piece of simulated state advanced on every engine step,
// e.g. the node power model or a telemetry sampler. Step receives the
// time at the *start* of the step and the step width.
type Component interface {
	Step(now, dt time.Duration)
}

// ComponentFunc adapts a function to the Component interface.
type ComponentFunc func(now, dt time.Duration)

// Step implements Component.
func (f ComponentFunc) Step(now, dt time.Duration) { f(now, dt) }

// Task is a periodic callback modelling a daemon that wakes up on an
// interval — in this repo, the uncore governors. The callback returns the
// delay until its next wakeup; returning 0 re-uses the task's configured
// interval. This lets a governor whose invocation itself takes time (PCM
// measurement windows, per-core MSR sweeps) schedule its next decision
// relative to when the previous one *finished*, matching §6.5 of the
// paper (MAGUS: 0.1 s invocation + 0.2 s sleep = 0.3 s decision period).
type Task struct {
	Name     string
	Interval time.Duration
	Fn       func(now time.Duration) time.Duration

	next time.Duration
}

// Engine owns the virtual clock and advances components and tasks.
type Engine struct {
	clock      Clock
	dt         time.Duration
	components []Component
	tasks      []*Task
}

// NewEngine returns an engine with the given timestep; dt <= 0 selects
// DefaultStep.
func NewEngine(dt time.Duration) *Engine {
	if dt <= 0 {
		dt = DefaultStep
	}
	return &Engine{dt: dt}
}

// Clock exposes the engine's virtual clock.
func (e *Engine) Clock() *Clock { return &e.clock }

// Step returns the engine timestep.
func (e *Engine) Step() time.Duration { return e.dt }

// AddComponent registers a component. Components run in registration
// order each step; register producers (workload) before consumers
// (power model, telemetry).
func (e *Engine) AddComponent(c Component) {
	if c == nil {
		panic("sim: nil component")
	}
	e.components = append(e.components, c)
}

// AddTask registers a periodic task. The first invocation happens at
// t = start; subsequent invocations follow the returned delay (or
// Interval when the callback returns 0).
func (e *Engine) AddTask(t *Task, start time.Duration) {
	if t == nil || t.Fn == nil {
		panic("sim: nil task")
	}
	if t.Interval <= 0 {
		panic(fmt.Sprintf("sim: task %q has non-positive interval %v", t.Name, t.Interval))
	}
	t.next = start
	e.tasks = append(e.tasks, t)
}

// ErrHorizon is returned by RunUntil when the stop condition was not
// reached before the safety horizon.
var ErrHorizon = errors.New("sim: horizon reached before stop condition")

// RunFor advances the simulation by d.
func (e *Engine) RunFor(d time.Duration) {
	end := e.clock.Now() + d
	for e.clock.Now() < end {
		e.Tick()
	}
}

// RunUntil advances the simulation until done() reports true, checking
// after every step. horizon bounds the run; a horizon <= 0 defaults to
// one virtual hour. It returns the virtual time at which the condition
// was met.
func (e *Engine) RunUntil(done func() bool, horizon time.Duration) (time.Duration, error) {
	if horizon <= 0 {
		horizon = time.Hour
	}
	end := e.clock.Now() + horizon
	for !done() {
		if e.clock.Now() >= end {
			return e.clock.Now(), ErrHorizon
		}
		e.Tick()
	}
	return e.clock.Now(), nil
}

// Tick advances exactly one timestep: due tasks fire first (a governor
// observes state as of the end of the previous step), then components
// integrate. RunFor and RunUntil are loops of Tick; lockstep drivers
// that interleave several engines call it directly.
func (e *Engine) Tick() {
	now := e.clock.Now()
	for _, t := range e.tasks {
		if now >= t.next {
			delay := t.Fn(now)
			if delay <= 0 {
				delay = t.Interval
			}
			t.next = now + delay
		}
	}
	for _, c := range e.components {
		c.Step(now, e.dt)
	}
	e.clock.Advance(e.dt)
}
