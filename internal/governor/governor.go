// Package governor defines the runtime-daemon interface shared by every
// uncore frequency-scaling policy in this repo, plus the two baselines
// the paper compares MAGUS against: the vendor default (uncore pinned at
// its maximum unless the hardware TDP clamp engages — §2) and static
// max/min pins used by the Figure 2 motivation study. The UPScavenger
// reimplementation lives in ups.go; MAGUS itself lives in internal/core
// and implements the same interface.
package governor

import (
	"fmt"
	"time"

	"github.com/spear-repro/magus/internal/msr"
	"github.com/spear-repro/magus/internal/pcm"
	"github.com/spear-repro/magus/internal/rapl"
)

// Env is everything a governor may see or touch on the node. Governors
// act only through the MSR device and monitoring handles — the same
// surfaces the real runtimes use — plus a cost hook that charges their
// invocation work (busy host time, MSR-access power) back to the node.
type Env struct {
	Dev      msr.Device
	PCM      pcm.Reader
	RAPL     *rapl.Reader
	Sockets  int
	CPUs     int
	FirstCPU func(socket int) int

	// SocketPCM optionally provides per-socket IMC throughput monitors
	// (index = socket). Present on platforms whose memory-controller
	// counters are socket-scoped; the per-socket scaling extension
	// requires it.
	SocketPCM []pcm.Reader

	UncoreMinGHz float64
	UncoreMaxGHz float64

	// Charge accounts one invocation's overhead: busy wall time on the
	// host, the (possibly fractional) cores it occupies, and extra
	// power (MSR IPIs, uncore wakeups) while busy. May be nil.
	Charge func(busy time.Duration, cores, extraWatts float64)

	// limitShadow caches each socket's last-seen MSR_UNCORE_RATIO_LIMIT
	// value so the read-modify-write in SetUncoreMax survives transient
	// read failures (the runtime never changes the min bits, §4).
	limitShadow map[int]uint64
}

// Validate reports wiring errors.
func (e *Env) Validate() error {
	switch {
	case e == nil:
		return fmt.Errorf("governor: nil env")
	case e.Dev == nil:
		return fmt.Errorf("governor: env without MSR device")
	case e.Sockets <= 0 || e.CPUs <= 0:
		return fmt.Errorf("governor: bad topology %d sockets / %d cpus", e.Sockets, e.CPUs)
	case e.FirstCPU == nil:
		return fmt.Errorf("governor: env without FirstCPU")
	case !(0 < e.UncoreMinGHz && e.UncoreMinGHz < e.UncoreMaxGHz):
		return fmt.Errorf("governor: bad uncore range %v–%v", e.UncoreMinGHz, e.UncoreMaxGHz)
	}
	return nil
}

// charge forwards to Charge when set.
func (e *Env) charge(busy time.Duration, cores, extraWatts float64) {
	if e.Charge != nil {
		e.Charge(busy, cores, extraWatts)
	}
}

// SetUncoreMax writes the max-ratio bits of MSR_UNCORE_RATIO_LIMIT on
// every socket, leaving the min bits unchanged (§4 of the paper). A
// transient read failure falls back to the cached register value.
func (e *Env) SetUncoreMax(ghz float64) error {
	if e.limitShadow == nil {
		e.limitShadow = make(map[int]uint64, e.Sockets)
	}
	for s := 0; s < e.Sockets; s++ {
		cpu := e.FirstCPU(s)
		old, err := e.Dev.Read(cpu, msr.UncoreRatioLimit)
		if err != nil {
			cached, ok := e.limitShadow[s]
			if !ok {
				return fmt.Errorf("governor: read uncore limit socket %d: %w", s, err)
			}
			old = cached
		}
		next := msr.WithUncoreMax(old, ghz*1e9)
		if err := e.Dev.Write(cpu, msr.UncoreRatioLimit, next); err != nil {
			return fmt.Errorf("governor: write uncore limit socket %d: %w", s, err)
		}
		e.limitShadow[s] = next
	}
	return nil
}

// moveUncore clamps ghz to the uncore range, quantises it to the MSR's
// 100 MHz ratio granularity and, when that differs from cur, writes it
// as the uncore limit. It returns the limit in force and whether it
// wrote; a failed write leaves cur in force, to retry next cycle.
func (e *Env) moveUncore(cur, ghz float64) (float64, bool) {
	ghz = min(max(ghz, e.UncoreMinGHz), e.UncoreMaxGHz)
	ghz = msr.RatioToHz(msr.HzToRatio(ghz*1e9)) / 1e9
	if ghz == cur || e.SetUncoreMax(ghz) != nil {
		return cur, false
	}
	return ghz, true
}

// Governor is one uncore frequency-scaling policy attached to a node
// for the lifetime of an application run.
type Governor interface {
	// Name identifies the policy in reports.
	Name() string
	// Attach binds the governor to a node at application start.
	Attach(env *Env) error
	// Interval returns the nominal delay between invocations; the
	// harness schedules the first invocation at t=0.
	Interval() time.Duration
	// Invoke runs one decision cycle at virtual time now and returns
	// the delay until the next cycle (0 = use Interval()).
	Invoke(now time.Duration) time.Duration
}

// Default is the vendor behaviour: the uncore limit stays at the
// hardware maximum and only the in-silicon TDP clamp (modelled in
// internal/node) ever reduces the frequency. It performs no runtime
// work, hence zero overhead.
type Default struct{ env *Env }

// NewDefault returns the vendor-default governor.
func NewDefault() *Default { return &Default{} }

// Name implements Governor.
func (*Default) Name() string { return "default" }

// Attach implements Governor: restore the vendor reset value (full
// range) in case a previous policy left the limit lowered.
func (d *Default) Attach(env *Env) error {
	if err := env.Validate(); err != nil {
		return err
	}
	d.env = env
	return env.SetUncoreMax(env.UncoreMaxGHz)
}

// Interval implements Governor; the default policy never wakes up.
func (*Default) Interval() time.Duration { return time.Hour }

// Invoke implements Governor (no-op).
func (*Default) Invoke(time.Duration) time.Duration { return time.Hour }

// Unmanaged is a node with no governor daemon at all: the fleet's
// members without a factory and Table 2's idle baseline. Unlike
// Default, whose Attach writes the uncore limit (through any fault
// wrappers, where an injected MSR error would fail the run), it never
// touches the hardware. It reports as "default".
type Unmanaged struct{}

// Name implements Governor.
func (Unmanaged) Name() string { return "default" }

// Attach implements Governor (no-op).
func (Unmanaged) Attach(*Env) error { return nil }

// Interval implements Governor; an unmanaged node never wakes up.
func (Unmanaged) Interval() time.Duration { return time.Hour }

// Invoke implements Governor (no-op).
func (Unmanaged) Invoke(time.Duration) time.Duration { return 0 }

// Static pins the uncore max limit at a fixed frequency for the whole
// run — the paper's Figure 2 uses max (2.2 GHz) and min (0.8 GHz) pins
// to bound the trade-off space.
type Static struct {
	ghz float64
	env *Env
}

// NewStatic returns a governor that pins the uncore limit at ghz.
func NewStatic(ghz float64) *Static { return &Static{ghz: ghz} }

// Name implements Governor.
func (s *Static) Name() string { return fmt.Sprintf("static-%.1fGHz", s.ghz) }

// Attach implements Governor.
func (s *Static) Attach(env *Env) error {
	if err := env.Validate(); err != nil {
		return err
	}
	if s.ghz < env.UncoreMinGHz || s.ghz > env.UncoreMaxGHz {
		return fmt.Errorf("governor: static pin %.2f GHz outside [%.2f, %.2f]",
			s.ghz, env.UncoreMinGHz, env.UncoreMaxGHz)
	}
	s.env = env
	return env.SetUncoreMax(s.ghz)
}

// Interval implements Governor.
func (*Static) Interval() time.Duration { return time.Hour }

// Invoke implements Governor (no-op).
func (*Static) Invoke(time.Duration) time.Duration { return time.Hour }
