package msr

import (
	"fmt"
	"sort"
)

// RegVal is one register's value inside a bank snapshot.
type RegVal struct {
	Reg uint32
	Val uint64
}

// BankState is one register bank, sorted by register address so the
// snapshot is deterministic (the live banks are maps).
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

func bankState(bank map[uint32]uint64) BankState {
	b := BankState{Regs: make([]RegVal, 0, len(bank))}
	for reg, val := range bank {
		b.Regs = append(b.Regs, RegVal{Reg: reg, Val: val})
	}
	sort.Slice(b.Regs, func(i, j int) bool { return b.Regs[i].Reg < b.Regs[j].Reg })
	return b
}

// State captures every register bank plus the limit-write generation.
func (s *Space) State() SpaceState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SpaceState{
		Pkg:    make([]BankState, len(s.pkgRegs)),
		Core:   make([]BankState, len(s.coreRegs)),
		LimGen: s.limGen.Load(),
	}
	for i, bank := range s.pkgRegs {
		st.Pkg[i] = bankState(bank)
	}
	for i, bank := range s.coreRegs {
		st.Core[i] = bankState(bank)
	}
	return st
}

// Restore overwrites every bank and counter from a snapshot taken on a
// space with the same topology.
func (s *Space) Restore(st SpaceState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(st.Pkg) != len(s.pkgRegs) || len(st.Core) != len(s.coreRegs) {
		return fmt.Errorf("msr: restore topology %d pkg / %d core banks, space has %d / %d",
			len(st.Pkg), len(st.Core), len(s.pkgRegs), len(s.coreRegs))
	}
	for i, b := range st.Pkg {
		bank := make(map[uint32]uint64, len(b.Regs))
		for _, rv := range b.Regs {
			bank[rv.Reg] = rv.Val
		}
		s.pkgRegs[i] = bank
	}
	for i, b := range st.Core {
		bank := make(map[uint32]uint64, len(b.Regs))
		for _, rv := range b.Regs {
			bank[rv.Reg] = rv.Val
		}
		s.coreRegs[i] = bank
	}
	s.limGen.Store(st.LimGen)
	return nil
}
