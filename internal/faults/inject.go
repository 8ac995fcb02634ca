package faults

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/spear-repro/magus/internal/detrand"
	"github.com/spear-repro/magus/internal/msr"
	"github.com/spear-repro/magus/internal/pcm"
)

// Tally counts injections by class.
type Tally struct {
	Errors, Stalls, Stales, Wilds, Losses uint64
}

// Total sums the tally across classes.
func (t Tally) Total() uint64 {
	return t.Errors + t.Stalls + t.Stales + t.Wilds + t.Losses
}

func (t *Tally) add(o Tally) {
	t.Errors += o.Errors
	t.Stalls += o.Stalls
	t.Stales += o.Stales
	t.Wilds += o.Wilds
	t.Losses += o.Losses
}

// action is the composite fault outcome for one device access.
type action struct {
	err   bool // fail the access
	stall time.Duration
	stale bool
	wild  bool
}

// injector evaluates one target's schedule against the virtual clock.
// Each wrapped device instance owns its injector (and its generator),
// so the injection sequence on one device never depends on how many
// other devices the plan also wraps.
type injector struct {
	faults []Fault
	seed   int64
	src    *detrand.Source
	rng    *rand.Rand
	tally  Tally
}

// newInjector builds an injector over the plan's faults for target;
// nil when the plan schedules nothing there. salt separates generator
// streams across targets and instances.
func newInjector(p *Plan, target Target, salt int64) *injector {
	if !p.Armed() || !p.targets(target) {
		return nil
	}
	var fs []Fault
	for _, f := range p.Faults {
		if f.Target == target {
			fs = append(fs, f)
		}
	}
	// The generator rides on a counting source so checkpoints can
	// capture the stream position; values are bit-identical to a bare
	// rand.NewSource (see internal/detrand).
	seed := p.seed() + salt
	src := detrand.NewSource(seed)
	return &injector{faults: fs, seed: seed, src: src, rng: rand.New(src)}
}

// decide rolls the schedule at virtual time now. The generator is
// consumed only for faults with a fractional rate, so all-or-nothing
// plans are rng-free and windows compose deterministically.
func (in *injector) decide(now time.Duration) action {
	var a action
	if in == nil {
		return a
	}
	for _, f := range in.faults {
		if !f.active(now) {
			continue
		}
		if r := f.rate(); r < 1 && in.rng.Float64() >= r {
			continue
		}
		switch f.Class {
		case ClassError:
			a.err = true
			in.tally.Errors++
		case ClassLoss:
			a.err = true
			in.tally.Losses++
		case ClassStall:
			a.stall += f.stall()
			in.tally.Stalls++
		case ClassStale:
			a.stale = true
			in.tally.Stales++
		case ClassWild:
			a.wild = true
			in.tally.Wilds++
		}
	}
	return a
}

// Set binds a plan to one node's virtual clock and hands out device
// wrappers. With an unarmed plan every Wrap method returns its input
// untouched, so the no-fault path is exactly the seed code path.
type Set struct {
	plan *Plan
	now  func() time.Duration

	injectors []*injector
	nextSalt  int64

	// Handed-out wrappers, in creation order, so a checkpoint can
	// capture their hold-last caches alongside the injector streams.
	pcms    []*PCM
	devices []*Device
}

// NewSet builds a wrapper factory for plan. now supplies the node's
// virtual time (the sim clock); it must be non-nil when the plan is
// armed.
func NewSet(plan *Plan, now func() time.Duration) *Set {
	if plan.Armed() && now == nil {
		panic("faults: armed plan needs a virtual clock")
	}
	return &Set{plan: plan, now: now}
}

// Armed reports whether the underlying plan injects anything.
func (s *Set) Armed() bool { return s != nil && s.plan.Armed() }

// Plan returns the bound plan (may be nil).
func (s *Set) Plan() *Plan {
	if s == nil {
		return nil
	}
	return s.plan
}

// Tally aggregates injections across every wrapper the set handed out.
func (s *Set) Tally() Tally {
	var t Tally
	if s == nil {
		return t
	}
	for _, in := range s.injectors {
		t.add(in.tally)
	}
	return t
}

func (s *Set) injector(target Target) *injector {
	in := newInjector(s.plan, target, int64(target[0])*1000+s.nextSalt)
	s.nextSalt++
	if in != nil {
		s.injectors = append(s.injectors, in)
	}
	return in
}

// WrapPCM wraps a throughput reader with the plan's pcm faults.
func (s *Set) WrapPCM(inner pcm.Reader) pcm.Reader {
	if s == nil {
		return inner
	}
	in := s.injector(TargetPCM)
	if in == nil {
		return inner
	}
	w := &PCM{inner: inner, inj: in, now: s.now}
	s.pcms = append(s.pcms, w)
	return w
}

// WrapDevice wraps an MSR device with the plan's msr and rapl faults.
func (s *Set) WrapDevice(inner msr.Device) msr.Device {
	if s == nil {
		return inner
	}
	msrInj := s.injector(TargetMSR)
	raplInj := s.injector(TargetRAPL)
	if msrInj == nil && raplInj == nil {
		return inner
	}
	w := &Device{
		inner: inner, now: s.now,
		msrInj: msrInj, raplInj: raplInj,
		stale: make(map[staleKey]uint64),
	}
	s.devices = append(s.devices, w)
	return w
}

// ---- PCM wrapper ----

// PCM injects faults into a memory-throughput reader. It implements
// pcm.Reader plus the resilient layer's LatencyReporter, so stall
// faults surface as virtual read latency the sensor can time out on.
type PCM struct {
	inner pcm.Reader
	inj   *injector
	now   func() time.Duration

	lastGood float64
	lastLat  time.Duration
}

// SystemMemoryThroughput implements pcm.Reader with faults applied.
func (p *PCM) SystemMemoryThroughput(now time.Duration) (float64, error) {
	a := p.inj.decide(p.now())
	p.lastLat = a.stall
	if a.err {
		return 0, fmt.Errorf("%w: pcm read at %v", ErrInjected, now)
	}
	if a.stale {
		// A frozen counter repeats its last value without touching the
		// device; the monitor's baseline resumes when the window ends.
		return p.lastGood, nil
	}
	v, err := p.inner.SystemMemoryThroughput(now)
	if err != nil {
		return v, err
	}
	if a.wild {
		return p.corrupt(v), nil
	}
	p.lastGood = v
	return v, nil
}

// LastReadLatency reports the virtual latency the last read consumed.
func (p *PCM) LastReadLatency() time.Duration { return p.lastLat }

// corrupt returns a wild reading in place of v.
func (p *PCM) corrupt(v float64) float64 {
	switch p.inj.rng.Intn(4) {
	case 0:
		return math.NaN()
	case 1:
		return -v - 1
	case 2:
		return math.Inf(1)
	default:
		return v*1000 + 54321 // implausible spike
	}
}

// ---- MSR device wrapper ----

type staleKey struct {
	cpu int
	reg uint32
}

// raplRegister classifies the RAPL-domain registers: faults with
// TargetRAPL hit only these, TargetMSR hits everything else.
func raplRegister(reg uint32) bool {
	switch reg {
	case msr.RaplPowerUnit, msr.PkgEnergyStatus, msr.DramEnergyStatus,
		msr.PkgPowerInfo, msr.PkgPowerLimit:
		return true
	}
	return false
}

// Device injects faults into an MSR device. Register addresses select
// the injection stream: RAPL-domain registers follow the rapl schedule,
// every other register the msr schedule.
type Device struct {
	inner msr.Device
	now   func() time.Duration

	msrInj, raplInj *injector
	stale           map[staleKey]uint64
	lastLat         time.Duration
}

func (d *Device) injectorFor(reg uint32) *injector {
	if raplRegister(reg) {
		return d.raplInj
	}
	return d.msrInj
}

// Read implements msr.Device with faults applied.
func (d *Device) Read(cpu int, reg uint32) (uint64, error) {
	in := d.injectorFor(reg)
	a := in.decide(d.now())
	d.lastLat = a.stall
	if a.err {
		return 0, fmt.Errorf("%w: rdmsr cpu %d reg %#x", ErrInjected, cpu, reg)
	}
	if a.stale {
		if v, ok := d.stale[staleKey{cpu, reg}]; ok {
			return v, nil
		}
	}
	v, err := d.inner.Read(cpu, reg)
	if err != nil {
		return v, err
	}
	if a.wild {
		// Flip one bit in the live 32-bit field — on an energy-status
		// counter this reads as a wrap/jump, on a limit register as a
		// corrupted ratio.
		return v ^ uint64(1)<<uint(in.rng.Intn(32)), nil
	}
	d.stale[staleKey{cpu, reg}] = v
	return v, nil
}

// Write implements msr.Device; only error/loss faults affect writes.
func (d *Device) Write(cpu int, reg uint32, val uint64) error {
	a := d.injectorFor(reg).decide(d.now())
	d.lastLat = a.stall
	if a.err {
		return fmt.Errorf("%w: wrmsr cpu %d reg %#x", ErrInjected, cpu, reg)
	}
	return d.inner.Write(cpu, reg, val)
}

// LastReadLatency reports the virtual latency of the last access.
func (d *Device) LastReadLatency() time.Duration { return d.lastLat }
