package node

import (
	"fmt"
	"time"

	"github.com/spear-repro/magus/internal/msr"
	"github.com/spear-repro/magus/internal/workload"
)

// DaemonWorkState is one queued daemon-work entry.
type DaemonWorkState struct {
	Remaining time.Duration
	Cores     float64
	ExtraW    float64
}

// GPUState is one board's mutable state.
type GPUState struct {
	ClockMHz float64
	SMUtil   float64
	MemUtil  float64
	PowerW   float64
	EnergyJ  float64
}

// State is the node's full mutable state, including the MSR register
// file it owns. The Config is construction input: a restore target must
// be built from the same Config. Everything a Step reads or writes is
// here — including the pure math.Pow memo, captured so a restored node
// is indistinguishable from the original down to cache effects.
type State struct {
	MSR msr.SpaceState

	UncoreEff    []float64
	ClampCeil    []float64
	PkgPowerW    []float64
	UncPowerW    []float64
	DrmPowerW    []float64
	PkgEnergyAcc []float64
	DrmEnergyAcc []float64

	CoreGHz  []float64
	CoreUtil []float64
	InstAcc  []float64
	CycAcc   []float64

	GPUs []GPUState

	Demand       workload.Demand
	Attained     float64
	AttainedSock []float64
	ServedGB     float64
	ServedGBSock []float64
	PkgJ         float64
	DrmJ         float64
	GPUJ         float64

	Daemon        []DaemonWorkState // undrained queue entries (head-compacted)
	DaemonBusyNow float64
	DaemonBusySec float64

	LastStatus []uint64
	MaxActive  []int

	LimGen uint64
	LimMax []float64
	LimMin []float64
	PL1W   []float64
	PL1On  []bool

	PowKey []uint64
	PowVal []float64
	PowIns int
}

// State captures the node, publishing pending RAPL energy first.
func (n *Node) State() State {
	n.flushEnergy()
	st := State{
		MSR:          n.space.State(),
		UncoreEff:    append([]float64(nil), n.uncoreEff...),
		ClampCeil:    append([]float64(nil), n.clampCeil...),
		PkgPowerW:    append([]float64(nil), n.pkgPowerW...),
		UncPowerW:    append([]float64(nil), n.uncPowerW...),
		DrmPowerW:    append([]float64(nil), n.drmPowerW...),
		PkgEnergyAcc: append([]float64(nil), n.pkgEnergyAcc...),
		DrmEnergyAcc: append([]float64(nil), n.drmEnergyAcc...),
		CoreGHz:      make([]float64, len(n.pstates)),
		CoreUtil:     append([]float64(nil), n.coreUtil...),
		InstAcc:      append([]float64(nil), n.instAcc...),
		CycAcc:       append([]float64(nil), n.cycAcc...),
		Demand:       n.demand,
		Attained:     n.attained,
		AttainedSock: append([]float64(nil), n.attainedSock...),
		ServedGB:     n.servedGB,
		ServedGBSock: append([]float64(nil), n.servedGBSock...),
		PkgJ:         n.pkgJ,
		DrmJ:         n.drmJ,
		GPUJ:         n.gpuJ,

		DaemonBusyNow: n.daemonBusyNow,
		DaemonBusySec: n.daemonBusySec,

		LastStatus: append([]uint64(nil), n.lastStatus...),
		MaxActive:  append([]int(nil), n.maxActive...),

		LimGen: n.limGen,
		LimMax: append([]float64(nil), n.limMax...),
		LimMin: append([]float64(nil), n.limMin...),
		PL1W:   append([]float64(nil), n.pl1W...),
		PL1On:  append([]bool(nil), n.pl1On...),

		PowKey: append([]uint64(nil), n.powKey[:n.powLen]...),
		PowVal: append([]float64(nil), n.powVal[:n.powLen]...),
		PowIns: n.powIns,
	}
	for i, p := range n.pstates {
		st.CoreGHz[i] = p.Current()
	}
	for _, g := range n.gpus {
		st.GPUs = append(st.GPUs, GPUState{
			ClockMHz: g.clock.Current(),
			SMUtil:   g.smUtil,
			MemUtil:  g.memUtil,
			PowerW:   g.powerW,
			EnergyJ:  g.energyJ,
		})
	}
	for i := n.daemonHead; i < len(n.daemon); i++ {
		w := n.daemon[i]
		st.Daemon = append(st.Daemon, DaemonWorkState{Remaining: w.remaining, Cores: w.cores, ExtraW: w.extraW})
	}
	return st
}

// Restore overwrites the node's state from a snapshot taken on a node
// built from the same Config.
func (n *Node) Restore(st State) error {
	sockets, cpus := n.cfg.Sockets, n.cfg.Sockets*n.cfg.CoresPerSocket
	switch {
	case len(st.UncoreEff) != sockets || len(st.ClampCeil) != sockets ||
		len(st.PkgPowerW) != sockets || len(st.UncPowerW) != sockets ||
		len(st.DrmPowerW) != sockets || len(st.PkgEnergyAcc) != sockets ||
		len(st.DrmEnergyAcc) != sockets || len(st.AttainedSock) != sockets ||
		len(st.ServedGBSock) != sockets || len(st.LastStatus) != sockets ||
		len(st.MaxActive) != sockets || len(st.LimMax) != sockets ||
		len(st.LimMin) != sockets || len(st.PL1W) != sockets || len(st.PL1On) != sockets:
		return fmt.Errorf("node: restore socket arrays do not match %d sockets", sockets)
	case len(st.CoreGHz) != cpus || len(st.CoreUtil) != cpus ||
		len(st.InstAcc) != cpus || len(st.CycAcc) != cpus:
		return fmt.Errorf("node: restore core arrays do not match %d cpus", cpus)
	case len(st.GPUs) != len(n.gpus):
		return fmt.Errorf("node: restore has %d gpus, node has %d", len(st.GPUs), len(n.gpus))
	case len(st.PowKey) != len(st.PowVal) || len(st.PowKey) > len(n.powKey):
		return fmt.Errorf("node: restore pow memo malformed (%d keys, %d vals)",
			len(st.PowKey), len(st.PowVal))
	}
	if err := n.space.Restore(st.MSR); err != nil {
		return err
	}
	copy(n.uncoreEff, st.UncoreEff)
	copy(n.clampCeil, st.ClampCeil)
	copy(n.pkgPowerW, st.PkgPowerW)
	copy(n.uncPowerW, st.UncPowerW)
	copy(n.drmPowerW, st.DrmPowerW)
	copy(n.pkgEnergyAcc, st.PkgEnergyAcc)
	copy(n.drmEnergyAcc, st.DrmEnergyAcc)
	clear(n.pending)
	for i := range n.pstates {
		n.pstates[i].SetCurrent(st.CoreGHz[i])
	}
	copy(n.coreUtil, st.CoreUtil)
	copy(n.instAcc, st.InstAcc)
	copy(n.cycAcc, st.CycAcc)
	n.ctrsMoved = true
	for i, g := range n.gpus {
		g.clock.SetCurrent(st.GPUs[i].ClockMHz)
		g.smUtil = st.GPUs[i].SMUtil
		g.memUtil = st.GPUs[i].MemUtil
		g.powerW = st.GPUs[i].PowerW
		g.energyJ = st.GPUs[i].EnergyJ
	}
	n.demand = st.Demand
	n.attained = st.Attained
	copy(n.attainedSock, st.AttainedSock)
	n.servedGB = st.ServedGB
	copy(n.servedGBSock, st.ServedGBSock)
	n.pkgJ, n.drmJ, n.gpuJ = st.PkgJ, st.DrmJ, st.GPUJ

	n.daemon = n.daemon[:0]
	n.daemonHead = 0
	for _, w := range st.Daemon {
		n.daemon = append(n.daemon, daemonWork{remaining: w.Remaining, cores: w.Cores, extraW: w.ExtraW})
	}
	n.daemonBusyNow = st.DaemonBusyNow
	n.daemonBusySec = st.DaemonBusySec

	copy(n.lastStatus, st.LastStatus)
	copy(n.maxActive, st.MaxActive)

	n.limGen = st.LimGen
	copy(n.limMax, st.LimMax)
	copy(n.limMin, st.LimMin)
	copy(n.pl1W, st.PL1W)
	copy(n.pl1On, st.PL1On)

	n.powLen = len(st.PowKey)
	copy(n.powKey[:], st.PowKey)
	copy(n.powVal[:], st.PowVal)
	n.powIns = st.PowIns
	n.quiet = false
	return nil
}
