package faults

import (
	"fmt"
	"sort"
	"time"
)

// InjectorState is one injector's generator position and tally.
type InjectorState struct {
	Seed  int64
	Draws uint64
	Tally Tally
}

// PCMState is the pcm wrapper's hold-last cache.
type PCMState struct {
	LastGood float64
	LastLat  time.Duration
}

// StaleEntry is one remembered register value in a device wrapper.
type StaleEntry struct {
	CPU int
	Reg uint32
	Val uint64
}

// DeviceState is the msr device wrapper's stale cache.
type DeviceState struct {
	Stale   []StaleEntry
	LastLat time.Duration
}

// SetState is a wrapper set's full mutable state. Wrappers and
// injectors are listed in creation order, which is deterministic: the
// harness wires devices in a fixed sequence, so a set rebuilt from the
// same plan over the same wiring produces matching lists.
type SetState struct {
	Injectors []InjectorState
	PCMs      []PCMState
	Devices   []DeviceState
}

// State captures every injector stream and wrapper cache the set
// handed out. Nil for a nil or unarmed set.
func (s *Set) State() *SetState {
	if s == nil || len(s.injectors) == 0 && len(s.pcms) == 0 && len(s.devices) == 0 {
		return nil
	}
	st := &SetState{}
	for _, in := range s.injectors {
		st.Injectors = append(st.Injectors, InjectorState{
			Seed:  in.seed,
			Draws: in.src.Draws(),
			Tally: in.tally,
		})
	}
	for _, p := range s.pcms {
		st.PCMs = append(st.PCMs, PCMState{LastGood: p.lastGood, LastLat: p.lastLat})
	}
	for _, d := range s.devices {
		ds := DeviceState{LastLat: d.lastLat}
		for k, v := range d.stale {
			ds.Stale = append(ds.Stale, StaleEntry{CPU: k.cpu, Reg: k.reg, Val: v})
		}
		sort.Slice(ds.Stale, func(i, j int) bool {
			a, b := ds.Stale[i], ds.Stale[j]
			if a.CPU != b.CPU {
				return a.CPU < b.CPU
			}
			return a.Reg < b.Reg
		})
		st.Devices = append(st.Devices, ds)
	}
	return st
}

// Restore fast-forwards every injector and overwrites every wrapper
// cache. The set must have been rebuilt from the same plan with the
// same wrapping sequence; seeds are cross-checked to catch drift.
func (s *Set) Restore(st *SetState) error {
	if st == nil {
		if s != nil && len(s.injectors) > 0 {
			return fmt.Errorf("faults: restore has no state but set has %d injectors", len(s.injectors))
		}
		return nil
	}
	if s == nil {
		return fmt.Errorf("faults: restore state for a nil set")
	}
	if len(st.Injectors) != len(s.injectors) || len(st.PCMs) != len(s.pcms) ||
		len(st.Devices) != len(s.devices) {
		return fmt.Errorf("faults: restore shape %d/%d/%d, set has %d/%d/%d",
			len(st.Injectors), len(st.PCMs), len(st.Devices),
			len(s.injectors), len(s.pcms), len(s.devices))
	}
	for i, in := range s.injectors {
		isp := st.Injectors[i]
		if isp.Seed != in.seed {
			return fmt.Errorf("faults: restore injector %d seed %d, set built with %d", i, isp.Seed, in.seed)
		}
		in.src.Restore(isp.Seed, isp.Draws)
		in.tally = isp.Tally
	}
	for i, p := range s.pcms {
		p.lastGood = st.PCMs[i].LastGood
		p.lastLat = st.PCMs[i].LastLat
	}
	for i, d := range s.devices {
		ds := st.Devices[i]
		d.stale = make(map[staleKey]uint64, len(ds.Stale))
		for _, e := range ds.Stale {
			d.stale[staleKey{cpu: e.CPU, reg: e.Reg}] = e.Val
		}
		d.lastLat = ds.LastLat
	}
	return nil
}
