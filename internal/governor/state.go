package governor

import (
	"fmt"
	"sort"
	"time"

	"github.com/spear-repro/magus/internal/resilient"
)

// ShadowEntry is one socket's cached MSR_UNCORE_RATIO_LIMIT value from
// the env's read-modify-write fallback cache.
type ShadowEntry struct {
	Socket int
	Val    uint64
}

// ShadowState returns the limit-shadow cache as a sorted slice (nil
// when no write has populated it yet).
func (e *Env) ShadowState() []ShadowEntry {
	if len(e.limitShadow) == 0 {
		return nil
	}
	out := make([]ShadowEntry, 0, len(e.limitShadow))
	for s, v := range e.limitShadow {
		out = append(out, ShadowEntry{Socket: s, Val: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Socket < out[j].Socket })
	return out
}

// RestoreShadow overwrites the limit-shadow cache.
func (e *Env) RestoreShadow(entries []ShadowEntry) {
	if len(entries) == 0 {
		e.limitShadow = nil
		return
	}
	e.limitShadow = make(map[int]uint64, len(entries))
	for _, en := range entries {
		e.limitShadow[en.Socket] = en.Val
	}
}

// UPSState is a UPS governor's full mutable state, including its env's
// limit-shadow cache (each governor owns the env it is attached to for
// the duration of a run).
type UPSState struct {
	Cur        float64
	SmoothDram float64
	HaveSmooth bool
	RefDramW   float64
	RefIPC     float64
	Floor      float64
	SinceProbe int
	HavePhase  bool
	LastInst   []uint64
	LastCyc    []uint64
	HaveCtrs   bool

	Health resilient.TrackerState

	Invocations uint64
	MSRReads    uint64
	MSRWrites   uint64
	PhaseResets uint64

	Shadow []ShadowEntry
}

// State captures the governor. Call only after Attach.
func (u *UPS) State() UPSState {
	return UPSState{
		Cur:        u.cur,
		SmoothDram: u.smoothDram,
		HaveSmooth: u.haveSmooth,
		RefDramW:   u.refDramW,
		RefIPC:     u.refIPC,
		Floor:      u.floor,
		SinceProbe: u.sinceProbe,
		HavePhase:  u.havePhase,
		LastInst:   append([]uint64(nil), u.lastInst...),
		LastCyc:    append([]uint64(nil), u.lastCyc...),
		HaveCtrs:   u.haveCtrs,

		Health: u.health.State(),

		Invocations: u.invocations,
		MSRReads:    u.msrReads,
		MSRWrites:   u.msrWrites,
		PhaseResets: u.phaseResets,

		Shadow: u.env.ShadowState(),
	}
}

// Restore overwrites an attached governor of the same topology.
func (u *UPS) Restore(st UPSState) error {
	if u.env == nil {
		return fmt.Errorf("governor: restore on a detached UPS")
	}
	if len(st.LastInst) != u.env.CPUs || len(st.LastCyc) != u.env.CPUs {
		return fmt.Errorf("governor: UPS restore counters %d/%d, env has %d cpus",
			len(st.LastInst), len(st.LastCyc), u.env.CPUs)
	}
	u.cur = st.Cur
	u.smoothDram = st.SmoothDram
	u.haveSmooth = st.HaveSmooth
	u.refDramW = st.RefDramW
	u.refIPC = st.RefIPC
	u.floor = st.Floor
	u.sinceProbe = st.SinceProbe
	u.havePhase = st.HavePhase
	copy(u.lastInst, st.LastInst)
	copy(u.lastCyc, st.LastCyc)
	u.haveCtrs = st.HaveCtrs
	u.health.Restore(st.Health)
	u.invocations = st.Invocations
	u.msrReads = st.MSRReads
	u.msrWrites = st.MSRWrites
	u.phaseResets = st.PhaseResets
	u.env.RestoreShadow(st.Shadow)
	return nil
}

// DUFState is a DUF governor's full mutable state.
type DUFState struct {
	Cur      float64
	RefIPS   float64
	LastInst []uint64
	LastAt   time.Duration
	HaveCtrs bool

	Health resilient.TrackerState

	Invocations uint64
	MSRWrites   uint64

	Shadow []ShadowEntry
}

// State captures the governor. Call only after Attach.
func (d *DUF) State() DUFState {
	return DUFState{
		Cur:         d.cur,
		RefIPS:      d.refIPS,
		LastInst:    append([]uint64(nil), d.lastInst...),
		LastAt:      d.lastAt,
		HaveCtrs:    d.haveCtrs,
		Health:      d.health.State(),
		Invocations: d.invocations,
		MSRWrites:   d.msrWrites,
		Shadow:      d.env.ShadowState(),
	}
}

// Restore overwrites an attached governor of the same topology.
func (d *DUF) Restore(st DUFState) error {
	if d.env == nil {
		return fmt.Errorf("governor: restore on a detached DUF")
	}
	if len(st.LastInst) != d.env.CPUs {
		return fmt.Errorf("governor: DUF restore counters %d, env has %d cpus",
			len(st.LastInst), d.env.CPUs)
	}
	d.cur = st.Cur
	d.refIPS = st.RefIPS
	copy(d.lastInst, st.LastInst)
	d.lastAt = st.LastAt
	d.haveCtrs = st.HaveCtrs
	d.health.Restore(st.Health)
	d.invocations = st.Invocations
	d.msrWrites = st.MSRWrites
	d.env.RestoreShadow(st.Shadow)
	return nil
}

// Env returns the attached environment (nil before Attach). The
// checkpoint layer uses it to capture the limit-shadow cache of
// stateless governors.
func (d *Default) Env() *Env { return d.env }

// Env returns the attached environment (nil before Attach).
func (s *Static) Env() *Env { return s.env }
