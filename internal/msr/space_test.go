package msr

import (
	"errors"
	"reflect"
	"sync"
	"testing"
)

func TestSpaceTopology(t *testing.T) {
	s := NewSpace(2, 40) // Intel+A100 topology: 2 × Xeon 8380
	if s.Sockets() != 2 || s.CPUs() != 80 {
		t.Fatalf("topology = %d sockets, %d cpus", s.Sockets(), s.CPUs())
	}
	if s.SocketOf(0) != 0 || s.SocketOf(39) != 0 || s.SocketOf(40) != 1 || s.SocketOf(79) != 1 {
		t.Fatal("SocketOf mapping wrong")
	}
	if s.FirstCPUOf(0) != 0 || s.FirstCPUOf(1) != 40 {
		t.Fatal("FirstCPUOf mapping wrong")
	}
}

func TestPackageScopeSharing(t *testing.T) {
	s := NewSpace(2, 4)
	// Write through cpu 1, read through cpu 3 (same socket).
	if err := s.Write(1, UncoreRatioLimit, 0x0F08); err != nil {
		t.Fatal(err)
	}
	v, err := s.Read(3, UncoreRatioLimit)
	if err != nil || v != 0x0F08 {
		t.Fatalf("same-socket read = %#x, %v", v, err)
	}
	// Other socket sees its own (zero) instance.
	v, err = s.Read(4, UncoreRatioLimit)
	if err != nil || v != 0 {
		t.Fatalf("cross-socket read = %#x, %v, want 0", v, err)
	}
}

func TestCoreScopeIsolation(t *testing.T) {
	s := NewSpace(1, 4)
	s.Poke(2, FixedCtrInstRetired, 12345)
	v, err := s.Read(2, FixedCtrInstRetired)
	if err != nil || v != 12345 {
		t.Fatalf("core read = %d, %v", v, err)
	}
	v, err = s.Read(3, FixedCtrInstRetired)
	if err != nil || v != 0 {
		t.Fatalf("neighbour core read = %d, %v, want 0", v, err)
	}
}

func TestReadOnlyRegisters(t *testing.T) {
	s := NewSpace(1, 2)
	for _, reg := range []uint32{PkgEnergyStatus, DramEnergyStatus, RaplPowerUnit, UncorePerfStatus, PkgPowerInfo} {
		if err := s.Write(0, reg, 1); !errors.Is(err, ErrReadOnly) {
			t.Errorf("write to %#x: err = %v, want ErrReadOnly", reg, err)
		}
	}
	// Hardware side may still set them.
	s.Poke(0, PkgEnergyStatus, 77)
	if v, _ := s.Read(0, PkgEnergyStatus); v != 77 {
		t.Fatalf("Poke'd value = %d, want 77", v)
	}
}

func TestDefaultRaplUnits(t *testing.T) {
	s := NewSpace(1, 1)
	v, err := s.Read(0, RaplPowerUnit)
	if err != nil {
		t.Fatal(err)
	}
	w, j, _ := DecodePowerUnit(v)
	if w != 0.125 || j != 1.0/16384 {
		t.Fatalf("default units = %v W, %v J", w, j)
	}
}

func TestBumpWrapsEnergyCounters(t *testing.T) {
	s := NewSpace(1, 1)
	s.Poke(0, PkgEnergyStatus, 0xFFFFFFF0)
	s.Bump(0, PkgEnergyStatus, 0x20)
	if v := s.Peek(0, PkgEnergyStatus); v != 0x10 {
		t.Fatalf("wrapped counter = %#x, want 0x10", v)
	}
	// Non-energy counters do not wrap at 32 bits.
	s.Poke(0, FixedCtrCPUCycles, 0xFFFFFFF0)
	s.Bump(0, FixedCtrCPUCycles, 0x20)
	if v := s.Peek(0, FixedCtrCPUCycles); v != 0x100000010 {
		t.Fatalf("cycle counter = %#x, want 0x100000010", v)
	}
}

func TestErrors(t *testing.T) {
	s := NewSpace(1, 2)
	if _, err := s.Read(5, UncoreRatioLimit); !errors.Is(err, ErrBadCPU) {
		t.Fatalf("bad cpu: %v", err)
	}
	if _, err := s.Read(0, 0xDEAD); !errors.Is(err, ErrUnknownReg) {
		t.Fatalf("unknown reg: %v", err)
	}
	if err := s.Write(-1, UncoreRatioLimit, 0); !errors.Is(err, ErrBadCPU) {
		t.Fatalf("bad cpu write: %v", err)
	}
}

func TestFaultInjection(t *testing.T) {
	s := NewSpace(1, 1)
	s.FailWrites(ErrInjected)
	if err := s.Write(0, UncoreRatioLimit, 1); !errors.Is(err, ErrInjected) {
		t.Fatalf("injected write fault: %v", err)
	}
	s.FailWrites(nil)
	if err := s.Write(0, UncoreRatioLimit, 1); err != nil {
		t.Fatalf("fault not cleared: %v", err)
	}
	s.FailReads(ErrInjected)
	if _, err := s.Read(0, UncoreRatioLimit); !errors.Is(err, ErrInjected) {
		t.Fatalf("injected read fault: %v", err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewSpace(2, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cpu := g * 2
			for i := 0; i < 1000; i++ {
				s.Bump(cpu, FixedCtrInstRetired, 1)
				s.Read(cpu, FixedCtrInstRetired)
				s.Write(cpu, UncoreRatioLimit, uint64(i))
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < 8; g++ {
		if v := s.Peek(g*2, FixedCtrInstRetired); v != 1000 {
			t.Fatalf("cpu %d counter = %d, want 1000", g*2, v)
		}
	}
}

func TestNewSpacePanicsOnBadTopology(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSpace(0,0) did not panic")
		}
	}()
	NewSpace(0, 0)
}

func TestLimitGen(t *testing.T) {
	s := NewSpace(2, 4)
	g0 := s.LimitGen()

	// Writes and Pokes to the limit registers advance the generation.
	if err := s.Write(0, UncoreRatioLimit, EncodeUncoreLimit(2.2e9, 0.8e9)); err != nil {
		t.Fatal(err)
	}
	if g := s.LimitGen(); g != g0+1 {
		t.Fatalf("generation after limit write = %d, want %d", g, g0+1)
	}
	s.Poke(4, PkgPowerLimit, 42)
	if g := s.LimitGen(); g != g0+2 {
		t.Fatalf("generation after PL1 poke = %d, want %d", g, g0+2)
	}

	// Non-limit traffic must not advance it: a stale cache hit would
	// feed the node outdated limits.
	s.Poke(0, UncorePerfStatus, 18)
	s.Bump(0, PkgEnergyStatus, 100)
	if _, err := s.Read(0, UncoreRatioLimit); err != nil {
		t.Fatal(err)
	}
	if g := s.LimitGen(); g != g0+2 {
		t.Fatalf("generation moved to %d on non-limit traffic, want %d", g, g0+2)
	}

	// A rejected write (read-only register) must not advance it either.
	if err := s.Write(0, PkgEnergyStatus, 1); err == nil {
		t.Fatal("write to read-only register succeeded")
	}
	if g := s.LimitGen(); g != g0+2 {
		t.Fatalf("generation moved on rejected write: %d", g)
	}
}

func TestBumpEnergy(t *testing.T) {
	s := NewSpace(2, 4)
	s.BumpEnergy(0, 100, 40)
	s.BumpEnergy(0, 0, 0) // no-op
	s.BumpEnergy(4, 7, 0) // socket 1, dram untouched
	if v := s.Peek(0, PkgEnergyStatus); v != 100 {
		t.Fatalf("pkg energy = %d, want 100", v)
	}
	if v := s.Peek(0, DramEnergyStatus); v != 40 {
		t.Fatalf("dram energy = %d, want 40", v)
	}
	if v := s.Peek(4, PkgEnergyStatus); v != 7 {
		t.Fatalf("socket 1 pkg energy = %d, want 7", v)
	}
	if v := s.Peek(4, DramEnergyStatus); v != 0 {
		t.Fatalf("socket 1 dram energy = %d, want 0", v)
	}

	// Wrap at the 32-bit counter mask, exactly like Bump.
	s.Poke(0, PkgEnergyStatus, EnergyCounterMask)
	s.BumpEnergy(0, 2, 0)
	if v := s.Peek(0, PkgEnergyStatus); v != 1 {
		t.Fatalf("wrapped pkg energy = %d, want 1", v)
	}
}

// TestSlotLayout pins the fixed-slot bank layout: each scope's slots
// follow register address order, slotOf agrees with the lists, and the
// slots BumpEnergy addresses directly are the energy counters'.
func TestSlotLayout(t *testing.T) {
	for _, l := range []struct {
		scope Scope
		addrs []uint32
	}{{PackageScope, pkgAddrs[:]}, {CoreScope, coreAddrs[:]}} {
		for i, reg := range l.addrs {
			if i > 0 && reg <= l.addrs[i-1] {
				t.Errorf("register %#x at slot %d is not in address order", reg, i)
			}
			if sc, slot, ok := slotOf(reg); !ok || sc != l.scope || slot != i {
				t.Errorf("slotOf(%#x) = %v, %d, %v; want %v, %d", reg, sc, slot, ok, l.scope, i)
			}
		}
	}
	if _, slot, _ := slotOf(PkgEnergyStatus); slot != pkgEnergySlot {
		t.Errorf("PkgEnergyStatus slot %d, pkgEnergySlot %d", slot, pkgEnergySlot)
	}
	if _, slot, _ := slotOf(DramEnergyStatus); slot != dramEnergySlot {
		t.Errorf("DramEnergyStatus slot %d, dramEnergySlot %d", slot, dramEnergySlot)
	}
	if _, _, ok := slotOf(0x123); ok {
		t.Error("slotOf accepted an unmodelled register")
	}
}

// TestStateRestoreRoundTrip checks that a snapshot lists exactly the
// written registers in address order and that Restore reproduces it.
func TestStateRestoreRoundTrip(t *testing.T) {
	s := NewSpace(2, 2)
	s.Poke(0, UncoreRatioLimit, 0x0F08)
	s.BumpEnergy(2, 7, 0) // DRAM delta zero: its register stays unwritten
	s.Poke(3, FixedCtrCPUCycles, 11)
	s.Poke(3, Mperf, 5)
	s.Bump(1, FixedCtrInstRetired, 9)
	st := s.State()

	want := SpaceState{
		Pkg: []BankState{
			{Regs: []RegVal{{RaplPowerUnit, s.Peek(0, RaplPowerUnit)}, {UncoreRatioLimit, 0x0F08}}},
			{Regs: []RegVal{{RaplPowerUnit, s.Peek(2, RaplPowerUnit)}, {PkgEnergyStatus, 7}}},
		},
		Core: []BankState{
			{Regs: []RegVal{}},
			{Regs: []RegVal{{FixedCtrInstRetired, 9}}},
			{Regs: []RegVal{}},
			{Regs: []RegVal{{Mperf, 5}, {FixedCtrCPUCycles, 11}}},
		},
		LimGen: 1,
	}
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("State() = %+v\nwant %+v", st, want)
	}

	r := NewSpace(2, 2)
	r.Poke(1, Aperf, 99) // overwritten: not in the snapshot
	if err := r.Restore(st); err != nil {
		t.Fatal(err)
	}
	if got := r.State(); !reflect.DeepEqual(got, st) {
		t.Fatalf("restored State() = %+v\nwant %+v", got, st)
	}
	if r.LimitGen() != s.LimitGen() {
		t.Fatalf("LimitGen = %d, want %d", r.LimitGen(), s.LimitGen())
	}
}

// TestRestoreRejectsBadRegisters checks that Restore refuses a register
// the space does not model, one filed under the wrong scope, or one
// listed twice, and leaves the space as it was.
func TestRestoreRejectsBadRegisters(t *testing.T) {
	for name, mutate := range map[string]func(*SpaceState){
		"unknown":        func(st *SpaceState) { st.Core[0].Regs = append(st.Core[0].Regs, RegVal{Reg: 0x123}) },
		"core in pkg":    func(st *SpaceState) { st.Pkg[1].Regs = append(st.Pkg[1].Regs, RegVal{Reg: Aperf}) },
		"pkg in core":    func(st *SpaceState) { st.Core[1].Regs = append(st.Core[1].Regs, RegVal{Reg: UncoreRatioLimit}) },
		"listed twice":   func(st *SpaceState) { st.Pkg[0].Regs = append(st.Pkg[0].Regs, st.Pkg[0].Regs[0]) },
		"short topology": func(st *SpaceState) { st.Core = st.Core[:1] },
	} {
		t.Run(name, func(t *testing.T) {
			s := NewSpace(2, 2)
			s.Poke(0, FixedCtrInstRetired, 1)
			st := s.State()
			mutate(&st)
			r := NewSpace(2, 2)
			r.Poke(2, UncoreRatioLimit, 0x0F08)
			before := r.State()
			if err := r.Restore(st); err == nil {
				t.Fatal("Restore accepted a malformed snapshot")
			}
			if got := r.State(); !reflect.DeepEqual(got, before) {
				t.Fatalf("failed Restore changed the space:\n%+v\nwant %+v", got, before)
			}
		})
	}
}
