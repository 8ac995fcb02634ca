package msr

import (
	"fmt"
	"math/bits"
)

// RegVal is one register's value inside a bank snapshot.
type RegVal struct {
	Reg uint32
	Val uint64
}

// BankState is one register bank: every register ever written, in
// address order.
type BankState struct {
	Regs []RegVal
}

// SpaceState is the full mutable state of a register space. The
// topology (sockets × cpus) is construction input, not state: a
// restore target must be built with the same shape.
type SpaceState struct {
	Pkg    []BankState // per socket
	Core   []BankState // per logical CPU
	LimGen uint64
}

// bankState lists a bank's written slots. Slots are numbered in address
// order, so the list comes out sorted.
func bankState(val []uint64, written uint8, addrs []uint32) BankState {
	b := BankState{Regs: make([]RegVal, 0, bits.OnesCount8(written))}
	for i, reg := range addrs {
		if written&(1<<i) != 0 {
			b.Regs = append(b.Regs, RegVal{Reg: reg, Val: val[i]})
		}
	}
	return b
}

// restoreBank loads a bank snapshot into val and written, rejecting a
// register that is not modelled in scope or that appears twice.
func restoreBank(b BankState, scope Scope, val []uint64, written *uint8) error {
	for _, rv := range b.Regs {
		sc, slot, ok := slotOf(rv.Reg)
		switch {
		case !ok:
			return fmt.Errorf("%w: restore %#x", ErrUnknownReg, rv.Reg)
		case sc != scope:
			return fmt.Errorf("%w: restore %#x into a bank of the other scope", ErrUnknownReg, rv.Reg)
		case *written&(1<<slot) != 0:
			return fmt.Errorf("msr: restore lists register %#x twice", rv.Reg)
		}
		val[slot] = rv.Val
		*written |= 1 << slot
	}
	return nil
}

// State captures every register bank plus the limit-write generation.
func (s *Space) State() SpaceState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SpaceState{
		Pkg:    make([]BankState, len(s.pkg)),
		Core:   make([]BankState, len(s.core)),
		LimGen: s.limGen.Load(),
	}
	for i := range s.pkg {
		st.Pkg[i] = bankState(s.pkg[i].val[:], s.pkg[i].written, pkgAddrs[:])
	}
	for i := range s.core {
		st.Core[i] = bankState(s.core[i].val[:], s.core[i].written, coreAddrs[:])
	}
	return st
}

// Restore overwrites every bank and counter from a snapshot taken on a
// space with the same topology. A snapshot naming a register the space
// does not model, or one in the wrong scope, is rejected and leaves the
// space unchanged.
func (s *Space) Restore(st SpaceState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(st.Pkg) != len(s.pkg) || len(st.Core) != len(s.core) {
		return fmt.Errorf("msr: restore topology %d pkg / %d core banks, space has %d / %d",
			len(st.Pkg), len(st.Core), len(s.pkg), len(s.core))
	}
	pkg := make([]pkgBank, len(s.pkg))
	for i, b := range st.Pkg {
		if err := restoreBank(b, PackageScope, pkg[i].val[:], &pkg[i].written); err != nil {
			return fmt.Errorf("socket %d: %w", i, err)
		}
	}
	core := make([]coreBank, len(s.core))
	for i, b := range st.Core {
		if err := restoreBank(b, CoreScope, core[i].val[:], &core[i].written); err != nil {
			return fmt.Errorf("cpu %d: %w", i, err)
		}
	}
	s.pkg, s.core = pkg, core
	s.limGen.Store(st.LimGen)
	return nil
}
