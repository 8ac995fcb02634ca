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

// scopeOf maps the modelled registers to their hardware scope.
func scopeOf(reg uint32) (Scope, bool) {
	switch reg {
	case UncoreRatioLimit, UncorePerfStatus, RaplPowerUnit,
		PkgEnergyStatus, PkgPowerLimit, PkgPowerInfo, DramEnergyStatus:
		return PackageScope, true
	case FixedCtrInstRetired, FixedCtrCPUCycles, Aperf, Mperf:
		return CoreScope, true
	}
	return 0, false
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
// for core-scope registers. It is safe for concurrent use.
//
// The simulator backing a node updates counters through the Poke/Bump
// methods (which bypass the read-only check, as hardware does); runtimes
// go through Read/Write.
type Space struct {
	mu          sync.Mutex
	sockets     int
	cpusPerSock int
	pkgRegs     []map[uint32]uint64 // per socket
	coreRegs    []map[uint32]uint64 // per cpu

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
		pkgRegs:     make([]map[uint32]uint64, sockets),
		coreRegs:    make([]map[uint32]uint64, sockets*cpusPerSocket),
	}
	for i := range s.pkgRegs {
		s.pkgRegs[i] = map[uint32]uint64{
			RaplPowerUnit: EncodePowerUnit(DefaultPowerUnitExp, DefaultEnergyUnitExp, DefaultTimeUnitExp),
		}
	}
	for i := range s.coreRegs {
		s.coreRegs[i] = make(map[uint32]uint64)
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
	bank, err := s.bank(cpu, reg)
	if err != nil {
		return 0, err
	}
	return bank[reg], nil
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
	bank, err := s.bank(cpu, reg)
	if err != nil {
		return err
	}
	bank[reg] = val
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
	bank, err := s.bank(cpu, reg)
	if err != nil {
		panic(fmt.Sprintf("msr: Poke(%d, %#x): %v", cpu, reg, err))
	}
	bank[reg] = val
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
	bank, err := s.bank(cpu, reg)
	if err != nil {
		panic(fmt.Sprintf("msr: Peek(%d, %#x): %v", cpu, reg, err))
	}
	return bank[reg]
}

// Bump adds delta to a counter register (hardware side), wrapping
// 32-bit energy-status counters at their modulus.
func (s *Space) Bump(cpu int, reg uint32, delta uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	bank, err := s.bank(cpu, reg)
	if err != nil {
		panic(fmt.Sprintf("msr: Bump(%d, %#x): %v", cpu, reg, err))
	}
	v := bank[reg] + delta
	if reg == PkgEnergyStatus || reg == DramEnergyStatus {
		v &= EnergyCounterMask
	}
	bank[reg] = v
}

// BumpEnergy adds deltas to both RAPL energy-status counters of cpu's
// package under a single lock acquisition — the node publishes package
// and DRAM energy every simulation step, and two Bump calls per socket
// per tick would double the lock traffic. Zero deltas are skipped
// without touching the lock.
func (s *Space) BumpEnergy(cpu int, pkgDelta, dramDelta uint64) {
	if pkgDelta == 0 && dramDelta == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	bank, err := s.bank(cpu, PkgEnergyStatus)
	if err != nil {
		panic(fmt.Sprintf("msr: BumpEnergy(%d): %v", cpu, err))
	}
	if pkgDelta != 0 {
		bank[PkgEnergyStatus] = (bank[PkgEnergyStatus] + pkgDelta) & EnergyCounterMask
	}
	if dramDelta != 0 {
		bank[DramEnergyStatus] = (bank[DramEnergyStatus] + dramDelta) & EnergyCounterMask
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

// bank resolves the register bank for (cpu, reg). Caller holds mu.
func (s *Space) bank(cpu int, reg uint32) (map[uint32]uint64, error) {
	if cpu < 0 || cpu >= s.CPUs() {
		return nil, fmt.Errorf("%w: %d", ErrBadCPU, cpu)
	}
	scope, ok := scopeOf(reg)
	if !ok {
		return nil, fmt.Errorf("%w: %#x", ErrUnknownReg, reg)
	}
	if scope == PackageScope {
		return s.pkgRegs[s.SocketOf(cpu)], nil
	}
	return s.coreRegs[cpu], nil
}
