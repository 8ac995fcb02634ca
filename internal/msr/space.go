package msr

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Device is the access interface both runtimes use. cpu addresses a
// logical CPU; registers with package scope may be read through any CPU
// belonging to the package, as on real hardware.
type Device interface {
	Read(cpu int, reg uint32) (uint64, error)
	Write(cpu int, reg uint32, val uint64) error
}

// Errors returned by Space (and used for failure injection in tests).
var (
	ErrBadCPU     = errors.New("msr: cpu index out of range")
	ErrUnknownReg = errors.New("msr: unknown register")
	ErrReadOnly   = errors.New("msr: register is read-only")
	ErrInjected   = errors.New("msr: injected fault")
)

// Scope classifies a register as per-core or per-package.
type Scope int

const (
	// PackageScope registers have one instance per socket.
	PackageScope Scope = iota
	// CoreScope registers have one instance per logical CPU.
	CoreScope
)

// The register file has one fixed slot per modelled register: a
// register's slot is its index in its scope's address-ordered list.
const (
	pkgSlots  = 7
	coreSlots = 4
)

var (
	pkgAddrs  = [pkgSlots]uint32{RaplPowerUnit, PkgPowerLimit, PkgEnergyStatus, PkgPowerInfo, DramEnergyStatus, UncoreRatioLimit, UncorePerfStatus}
	coreAddrs = [coreSlots]uint32{Mperf, Aperf, FixedCtrInstRetired, FixedCtrCPUCycles}
)

// Slots of the two RAPL energy counters, which BumpEnergy addresses
// directly (TestSlotLayout pins them to slotOf).
const (
	pkgEnergySlot  = 2
	dramEnergySlot = 4
)

// slotOf maps a modelled register to its hardware scope and its slot
// in a bank of that scope.
func slotOf(reg uint32) (Scope, int, bool) {
	for i, a := range pkgAddrs {
		if a == reg {
			return PackageScope, i, true
		}
	}
	for i, a := range coreAddrs {
		if a == reg {
			return CoreScope, i, true
		}
	}
	return 0, 0, false
}

// pkgBank and coreBank are one register bank each. written has bit i
// set once slot i has been stored to: a snapshot lists exactly the
// registers that were ever set, as a sparse register file would.
type pkgBank struct {
	val     [pkgSlots]uint64
	written uint8
}

type coreBank struct {
	val     [coreSlots]uint64
	written uint8
}

// cell is one resolved register slot.
type cell struct {
	val     *uint64
	written *uint8
	bit     uint8
}

func (c cell) get() uint64 { return *c.val }

func (c cell) set(v uint64) {
	*c.val = v
	*c.written |= c.bit
}

// readOnly reports registers that reject writes from software.
func readOnly(reg uint32) bool {
	switch reg {
	case UncorePerfStatus, RaplPowerUnit, PkgPowerInfo,
		PkgEnergyStatus, DramEnergyStatus:
		return true
	}
	return false
}

// Space is the simulated MSR register file for one node: one register
// bank per socket for package-scope registers and one per logical CPU
// for core-scope registers. A bank is a fixed array with one slot per
// modelled register of its scope (7 package, 4 core) plus a bitmask of
// the slots ever written, so an access is an index, not a map lookup.
// It is safe for concurrent use.
//
// The simulator backing a node updates counters through the Poke/Bump
// methods (which bypass the read-only check, as hardware does); runtimes
// go through Read/Write.
type Space struct {
	mu          sync.Mutex
	sockets     int
	cpusPerSock int
	pkg         []pkgBank  // per socket
	core        []coreBank // per cpu

	// limGen counts writes (Write or Poke) to the software-controlled
	// limit registers (UncoreRatioLimit, PkgPowerLimit). The node polls
	// it lock-free every step and only re-reads and re-decodes the
	// limits when the generation moved — limits change a few times per
	// second while steps happen a thousand times per second.
	limGen atomic.Uint64

	failRead  error // injected fault for Read
	failWrite error // injected fault for Write
}

// limitReg reports registers whose writes bump the limit generation.
func limitReg(reg uint32) bool {
	return reg == UncoreRatioLimit || reg == PkgPowerLimit
}

// NewSpace builds a register space for sockets × cpusPerSocket logical
// CPUs, with RAPL units and uncore limits initialised to defaults.
func NewSpace(sockets, cpusPerSocket int) *Space {
	if sockets <= 0 || cpusPerSocket <= 0 {
		panic(fmt.Sprintf("msr: invalid topology %d×%d", sockets, cpusPerSocket))
	}
	s := &Space{
		sockets:     sockets,
		cpusPerSock: cpusPerSocket,
		pkg:         make([]pkgBank, sockets),
		core:        make([]coreBank, sockets*cpusPerSocket),
	}
	for i := range s.pkg {
		s.mustCell(s.FirstCPUOf(i), RaplPowerUnit, "NewSpace").
			set(EncodePowerUnit(DefaultPowerUnitExp, DefaultEnergyUnitExp, DefaultTimeUnitExp))
	}
	return s
}

// Sockets returns the socket count.
func (s *Space) Sockets() int { return s.sockets }

// CPUs returns the logical CPU count.
func (s *Space) CPUs() int { return s.sockets * s.cpusPerSock }

// SocketOf returns the socket owning a logical CPU.
func (s *Space) SocketOf(cpu int) int { return cpu / s.cpusPerSock }

// FirstCPUOf returns the first logical CPU of a socket — the CPU a
// runtime uses to address that package's MSRs (wrmsr -p N).
func (s *Space) FirstCPUOf(socket int) int { return socket * s.cpusPerSock }

// Read implements Device.
func (s *Space) Read(cpu int, reg uint32) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failRead != nil {
		return 0, s.failRead
	}
	c, err := s.cell(cpu, reg)
	if err != nil {
		return 0, err
	}
	return c.get(), nil
}

// Write implements Device. Writes to read-only registers fail, as on
// real hardware.
func (s *Space) Write(cpu int, reg uint32, val uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failWrite != nil {
		return s.failWrite
	}
	if readOnly(reg) {
		return fmt.Errorf("%w: %#x", ErrReadOnly, reg)
	}
	c, err := s.cell(cpu, reg)
	if err != nil {
		return err
	}
	c.set(val)
	if limitReg(reg) {
		s.limGen.Add(1)
	}
	return nil
}

// Poke sets a register from the hardware side, bypassing the read-only
// check. cpu selects the bank as in Read.
func (s *Space) Poke(cpu int, reg uint32, val uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mustCell(cpu, reg, "Poke").set(val)
	if limitReg(reg) {
		s.limGen.Add(1)
	}
}

// LimitGen returns the current limit-write generation: it advances on
// every Write or Poke to UncoreRatioLimit or PkgPowerLimit. Readers
// that cache decoded limits invalidate on a generation change. Safe to
// call without holding any lock.
func (s *Space) LimitGen() uint64 { return s.limGen.Load() }

// Peek reads a register from the hardware side, bypassing FailReads.
func (s *Space) Peek(cpu int, reg uint32) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mustCell(cpu, reg, "Peek").get()
}

// Bump adds delta to a counter register (hardware side), wrapping
// 32-bit energy-status counters at their modulus.
func (s *Space) Bump(cpu int, reg uint32, delta uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.mustCell(cpu, reg, "Bump")
	v := c.get() + delta
	if reg == PkgEnergyStatus || reg == DramEnergyStatus {
		v &= EnergyCounterMask
	}
	c.set(v)
}

// BumpEnergy adds deltas to both RAPL energy-status counters of cpu's
// package under a single lock acquisition — the node publishes its
// pending package and DRAM units together. Zero deltas are skipped
// without touching the lock.
func (s *Space) BumpEnergy(cpu int, pkgDelta, dramDelta uint64) {
	if pkgDelta == 0 && dramDelta == 0 {
		return
	}
	if cpu < 0 || cpu >= s.CPUs() {
		panic(fmt.Sprintf("msr: BumpEnergy(%d): %v: %d", cpu, ErrBadCPU, cpu))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b := &s.pkg[s.SocketOf(cpu)]
	if pkgDelta != 0 {
		b.val[pkgEnergySlot] = (b.val[pkgEnergySlot] + pkgDelta) & EnergyCounterMask
		b.written |= 1 << pkgEnergySlot
	}
	if dramDelta != 0 {
		b.val[dramEnergySlot] = (b.val[dramEnergySlot] + dramDelta) & EnergyCounterMask
		b.written |= 1 << dramEnergySlot
	}
}

// FailReads injects err into all subsequent Read calls (nil clears).
func (s *Space) FailReads(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failRead = err
}

// FailWrites injects err into all subsequent Write calls (nil clears).
func (s *Space) FailWrites(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failWrite = err
}

// cell resolves the register slot for (cpu, reg). Caller holds mu.
func (s *Space) cell(cpu int, reg uint32) (cell, error) {
	if cpu < 0 || cpu >= s.CPUs() {
		return cell{}, fmt.Errorf("%w: %d", ErrBadCPU, cpu)
	}
	scope, slot, ok := slotOf(reg)
	if !ok {
		return cell{}, fmt.Errorf("%w: %#x", ErrUnknownReg, reg)
	}
	if scope == PackageScope {
		b := &s.pkg[s.SocketOf(cpu)]
		return cell{&b.val[slot], &b.written, 1 << slot}, nil
	}
	b := &s.core[cpu]
	return cell{&b.val[slot], &b.written, 1 << slot}, nil
}

// mustCell is cell for the hardware side, where a bad address is a
// simulator bug. Caller holds mu.
func (s *Space) mustCell(cpu int, reg uint32, op string) cell {
	c, err := s.cell(cpu, reg)
	if err != nil {
		panic(fmt.Sprintf("msr: %s(%d, %#x): %v", op, cpu, reg, err))
	}
	return c
}
