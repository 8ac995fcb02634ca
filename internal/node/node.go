package node

import (
	"math"
	"time"

	"github.com/spear-repro/magus/internal/cpufreq"
	"github.com/spear-repro/magus/internal/gpudvfs"
	"github.com/spear-repro/magus/internal/msr"
	"github.com/spear-repro/magus/internal/power"
	"github.com/spear-repro/magus/internal/workload"
)

// gpuState is one GPU board's live state.
type gpuState struct {
	spec    GPUSpec
	clock   *gpudvfs.Clock
	smUtil  float64
	memUtil float64
	powerW  float64
	energyJ float64
}

// daemonWork is pending runtime-daemon activity (governor invocations)
// charged to socket 0: busy host cores plus extra power (MSR IPIs,
// interconnect wakeups) for a duration.
type daemonWork struct {
	remaining time.Duration
	cores     float64
	extraW    float64
}

// Node is the simulated machine. It implements sim.Component; register
// the workload runner before the node so demand precedes service.
type Node struct {
	cfg   Config
	space *msr.Space

	// Per-socket state.
	uncoreEff    []float64 // effective uncore frequency (GHz)
	clampCeil    []float64 // TDP-clamp ceiling (GHz)
	pkgPowerW    []float64
	uncPowerW    []float64 // uncore share of pkg power (W)
	drmPowerW    []float64
	pkgEnergyAcc []float64 // fractional RAPL units not yet in the MSR
	drmEnergyAcc []float64
	// Whole RAPL units accumulated but not yet published to the energy
	// status registers. A step adds to them without taking the register
	// file's lock; flushEnergy publishes them before anything can read
	// the registers (a device read or write of an energy register,
	// State, Space). The counters wrap modulo 2^32, so one bump by the
	// sum lands where the per-step bumps would have.
	pending []energyUnits

	// Per-core state.
	pstates  []cpufreq.PState
	coreUtil []float64
	instAcc  []float64 // instructions retired (float accumulator)
	cycAcc   []float64 // unhalted cycles
	// ctrsMoved reports that the accumulators may differ from the fixed
	// counters last published to the register file. Step, New and
	// Restore set it; flushCoreCounters clears it, so a governor's
	// per-core sweep publishes every CPU once instead of once per read.
	ctrsMoved bool
	// quiet reports that the last full step moved no state but the
	// accumulators and idle cores' frequencies; qDemand, qDt, qIPC and
	// qAlpha below hold its inputs then.
	quiet bool
	// idleSettled reports that the last replay left every idle core's
	// frequency bit-identical, so later replays, until the next full
	// step, would too and skip them.
	idleSettled bool

	gpus []*gpuState

	demand           workload.Demand
	tenantShares     []workload.TenantShare
	attained         float64   // GB/s served last step
	attainedSock     []float64 // per-socket GB/s served last step
	servedGB         float64   // cumulative GB served
	servedGBSock     []float64 // cumulative GB served per socket
	pkgJ, drmJ, gpuJ float64   // cumulative joules

	daemon        []daemonWork
	daemonHead    int     // index of the first undrained queue entry
	daemonBusyNow float64 // cores busy this step (for telemetry)
	daemonBusySec float64 // cumulative daemon busy time drained

	// Hot-tick caches (docs/PERF.md). None of these change what a step
	// computes — they only avoid recomputing invariants every tick.
	cpu0        []int     // first logical CPU per socket
	sockTraffic []float64 // per-socket served GB/s scratch (was a per-step alloc)
	lastStatus  []uint64  // last UncorePerfStatus ratio published per socket
	maxActive   []int     // per-socket high watermark of cores ever given util > 0

	// Decoded limit-register cache, invalidated by the MSR space's
	// limit-write generation: steps happen every millisecond, limit
	// writes a few times per second.
	limGen uint64
	limMax []float64 // decoded uncore max limit (GHz)
	limMin []float64 // decoded uncore min limit (GHz)
	pl1W   []float64 // decoded RAPL PL1 cap (W)
	pl1On  []bool    // PL1 enable bit
	// corePow is rel ↦ rel^Core.FreqExp, its exponent split once here.
	// The memo below keys it on the exact bits of its input: cores
	// sharing a utilisation history share bit-identical frequencies, so
	// a step computes only a handful of distinct powers.
	corePow power.Pow
	powKey  [8]uint64
	powVal  [8]float64
	powLen  int
	powIns  int
	powMiss uint64 // memo misses ever; a miss mutates the memo

	// The demand, step length, achieved IPC and P-state blend factor of
	// the last full step, recorded when it left the node quiet. A step
	// whose inputs match bit for bit would compute exactly what that
	// step computed, so Step replays it (see replay).
	qDemand workload.Demand
	qDt     time.Duration
	qIPC    float64
	qAlpha  float64
	// noReplay forces every step down the full path (tests compare the
	// two paths bit for bit).
	noReplay bool
}

// New builds a node from cfg with all controllers at their idle points
// and MSRs initialised to vendor defaults (uncore limit = full range).
func New(cfg Config) *Node {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := &Node{
		cfg:          cfg,
		space:        msr.NewSpace(cfg.Sockets, cfg.CoresPerSocket),
		uncoreEff:    make([]float64, cfg.Sockets),
		clampCeil:    make([]float64, cfg.Sockets),
		pkgPowerW:    make([]float64, cfg.Sockets),
		uncPowerW:    make([]float64, cfg.Sockets),
		drmPowerW:    make([]float64, cfg.Sockets),
		pkgEnergyAcc: make([]float64, cfg.Sockets),
		drmEnergyAcc: make([]float64, cfg.Sockets),
		pending:      make([]energyUnits, cfg.Sockets),
		pstates:      make([]cpufreq.PState, cfg.Sockets*cfg.CoresPerSocket),
		coreUtil:     make([]float64, cfg.Sockets*cfg.CoresPerSocket),
		instAcc:      make([]float64, cfg.Sockets*cfg.CoresPerSocket),
		cycAcc:       make([]float64, cfg.Sockets*cfg.CoresPerSocket),
		attainedSock: make([]float64, cfg.Sockets),
		servedGBSock: make([]float64, cfg.Sockets),
		cpu0:         make([]int, cfg.Sockets),
		sockTraffic:  make([]float64, cfg.Sockets),
		lastStatus:   make([]uint64, cfg.Sockets),
		maxActive:    make([]int, cfg.Sockets),
		limMax:       make([]float64, cfg.Sockets),
		limMin:       make([]float64, cfg.Sockets),
		pl1W:         make([]float64, cfg.Sockets),
		pl1On:        make([]bool, cfg.Sockets),
		corePow:      cfg.Core.FreqPow(),
		ctrsMoved:    true,
	}
	for s := 0; s < cfg.Sockets; s++ {
		n.uncoreEff[s] = cfg.UncoreMaxGHz
		n.clampCeil[s] = cfg.UncoreMaxGHz
		cpu0 := n.space.FirstCPUOf(s)
		n.cpu0[s] = cpu0
		n.lastStatus[s] = ^uint64(0) // force the first status publish
		n.space.Poke(cpu0, msr.UncoreRatioLimit,
			msr.EncodeUncoreLimit(cfg.UncoreMaxGHz*1e9, cfg.UncoreMinGHz*1e9))
		n.space.Poke(cpu0, msr.PkgPowerInfo,
			uint64(cfg.TDPWatts/0.125)) // power units of 1/8 W
	}
	n.refreshLimits()
	ps := cpufreq.New(cfg.CoreMinGHz, cfg.CoreBaseGHz, cfg.CoreMaxGHz, cfg.CoreTau)
	for i := range n.pstates {
		n.pstates[i] = ps
	}
	for _, g := range cfg.GPUs {
		n.gpus = append(n.gpus, &gpuState{
			spec:  g,
			clock: gpudvfs.New(g.IdleClockMHz, g.MaxClockMHz, cfg.GPUTau),
		})
	}
	return n
}

// Config returns the node's configuration.
func (n *Node) Config() Config { return n.cfg }

// Space exposes the raw simulated register file (tests, fault
// injection). It publishes pending RAPL energy first, so the registers
// it shows are the ones an eager publish would have left.
func (n *Node) Space() *msr.Space {
	n.flushEnergy()
	return n.space
}

// MSRDevice returns the device handle runtimes should use: it flushes
// the node's counter accumulators into the register file before reads,
// so per-core fixed counters and RAPL status registers are current.
func (n *Node) MSRDevice() msr.Device { return nodeDevice{n} }

// SetDemand installs the application demand for the next step.
func (n *Node) SetDemand(d workload.Demand) { n.demand = d }

// SetTenantShares installs the per-tenant utilisation share surface for
// co-located workloads. The node retains the slice; the workload
// multiplexer mutates it in place each step, so the node always exposes
// the current step's shares — the simulated analogue of per-process
// SM/memory accounting counters. Single-tenant runs never call this and
// TenantShares returns nil.
func (n *Node) SetTenantShares(ts []workload.TenantShare) { n.tenantShares = ts }

// TenantShares returns the live per-tenant share slice (nil when the
// node runs a single tenant). Callers must treat it as read-only.
func (n *Node) TenantShares() []workload.TenantShare { return n.tenantShares }

// Demand returns the demand currently applied.
func (n *Node) Demand() workload.Demand { return n.demand }

// AttainedGBs returns the memory throughput served during the last
// step, in GB/s.
func (n *Node) AttainedGBs() float64 { return n.attained }

// ServedGB returns cumulative GB served — the IMC counter PCM reads.
func (n *Node) ServedGB() float64 { return n.servedGB }

// ServedGBSocket returns one socket's cumulative served GB — the
// per-socket IMC counters the per-socket scaling extension reads.
func (n *Node) ServedGBSocket(socket int) float64 { return n.servedGBSock[socket] }

// AttainedGBsSocket returns one socket's served throughput last step.
func (n *Node) AttainedGBsSocket(socket int) float64 { return n.attainedSock[socket] }

// socketShare returns the fraction of memory traffic routed to a
// socket: even interleaving shifted toward socket 0 by the demand's
// NUMA skew.
func (n *Node) socketShare(socket int) float64 {
	s := float64(n.cfg.Sockets)
	even := 1 / s
	skew := n.demand.NUMASkew
	if skew <= 0 || n.cfg.Sockets == 1 {
		return even
	}
	if skew > 1 {
		skew = 1
	}
	if socket == 0 {
		return even + skew*(1-even)
	}
	return even * (1 - skew)
}

// AddDaemonBusy charges governor invocation work to the node: cores
// busy host cores on socket 0 plus extraW watts for dur of virtual time.
// Work queues and drains in FIFO order.
func (n *Node) AddDaemonBusy(dur time.Duration, cores, extraW float64) {
	if dur <= 0 {
		return
	}
	n.daemon = append(n.daemon, daemonWork{remaining: dur, cores: cores, extraW: extraW})
}

// DaemonBusySeconds returns the cumulative runtime-daemon busy time the
// node has drained — used by the Table 2 invocation-overhead analysis.
func (n *Node) DaemonBusySeconds() float64 { return n.daemonBusySec }

// UncoreFreqGHz returns a socket's current effective uncore frequency.
func (n *Node) UncoreFreqGHz(socket int) float64 { return n.uncoreEff[socket] }

// UncorePowerW returns a socket's instantaneous uncore power as
// computed by the last Step — the exact watts the package energy
// integral charged for the uncore domain, so the waste ledger's total
// agrees bit-for-bit with the simulated energy accounting.
func (n *Node) UncorePowerW(socket int) float64 { return n.uncPowerW[socket] }

// CoreFreqGHz returns a logical CPU's current frequency.
func (n *Node) CoreFreqGHz(cpu int) float64 { return n.pstates[cpu].Current() }

// PkgPowerW returns a socket's package power (core + uncore domains).
func (n *Node) PkgPowerW(socket int) float64 { return n.pkgPowerW[socket] }

// DramPowerW returns a socket's DRAM power.
func (n *Node) DramPowerW(socket int) float64 { return n.drmPowerW[socket] }

// CPUPowerW returns total package + DRAM power across sockets — the
// quantity the paper's "power saving" metric uses.
func (n *Node) CPUPowerW() float64 {
	var p float64
	for s := 0; s < n.cfg.Sockets; s++ {
		p += n.pkgPowerW[s] + n.drmPowerW[s]
	}
	return p
}

// GPUCount returns the number of GPU boards.
func (n *Node) GPUCount() int { return len(n.gpus) }

// GPUPowerW returns a board's current power draw.
func (n *Node) GPUPowerW(i int) float64 { return n.gpus[i].powerW }

// GPUClockMHz returns a board's current SM clock.
func (n *Node) GPUClockMHz(i int) float64 { return n.gpus[i].clock.Current() }

// GPUUtil returns a board's SM and memory utilisation.
func (n *Node) GPUUtil(i int) (sm, mem float64) { return n.gpus[i].smUtil, n.gpus[i].memUtil }

// GPUEnergyJ returns a board's cumulative energy.
func (n *Node) GPUEnergyJ(i int) float64 { return n.gpus[i].energyJ }

// EnergyJ returns cumulative package, DRAM and GPU energy in joules.
func (n *Node) EnergyJ() (pkg, dram, gpu float64) { return n.pkgJ, n.drmJ, n.gpuJ }

// TotalPowerW returns instantaneous node power (CPU + DRAM + GPUs).
func (n *Node) TotalPowerW() float64 {
	p := n.CPUPowerW()
	for _, g := range n.gpus {
		p += g.powerW
	}
	return p
}

// refreshLimits re-reads and re-decodes the software-controlled limit
// registers for every socket and records the generation they were read
// at. Called from Step only when the MSR space's limit-write generation
// moved, so the per-tick path never takes the register-file lock for
// limits that did not change.
func (n *Node) refreshLimits() {
	n.limGen = n.space.LimitGen()
	for s := 0; s < n.cfg.Sockets; s++ {
		limMaxHz, limMinHz := msr.DecodeUncoreLimit(n.space.Peek(n.cpu0[s], msr.UncoreRatioLimit))
		limMax, limMin := limMaxHz/1e9, limMinHz/1e9
		if limMax < limMin {
			limMax = limMin
		}
		n.limMax[s], n.limMin[s] = limMax, limMin
		pl1, enabled := msr.DecodePowerLimit(n.space.Peek(n.cpu0[s], msr.PkgPowerLimit), 0.125)
		n.pl1W[s], n.pl1On[s] = pl1, enabled
	}
}

// Step implements sim.Component. A step whose inputs — the demand, the
// limit registers, dt and an empty daemon queue — equal the previous
// step's bit for bit, after a previous step that moved no state but
// the accumulators, only replays the accumulations: the full step would
// recompute the same values from the same state (DESIGN.md §2).
func (n *Node) Step(now, dt time.Duration) {
	if n.canReplay(dt) {
		n.replay(dt.Seconds())
		return
	}
	n.step(dt)
}

// canReplay reports whether a step of dt may replay the last one.
func (n *Node) canReplay(dt time.Duration) bool {
	return n.quiet && dt == n.qDt && n.daemonHead == len(n.daemon) &&
		n.space.LimitGen() == n.limGen && sameDemand(n.demand, n.qDemand)
}

// sameDemand compares two demands bit for bit: == would equate -0 with
// +0, which can round differently downstream, and never equates NaNs.
func sameDemand(a, b workload.Demand) bool {
	return same(a.CPUBusyCores, b.CPUBusyCores) && same(a.MemGBs, b.MemGBs) &&
		same(a.MemBoundFrac, b.MemBoundFrac) && same(a.GPUSMUtil, b.GPUSMUtil) &&
		same(a.GPUMemUtil, b.GPUMemUtil) && same(a.NUMASkew, b.NUMASkew) &&
		same(a.CPUIntensity, b.CPUIntensity)
}

// same reports bit equality.
func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// replay performs exactly what a full step does when every value it
// computes equals the previous step's, in the full step's order and with
// its expressions: served GB, the counters of every busy core,
// package/DRAM joules and RAPL units, and GPU energy. It also steps each
// idle core below the watermark towards MinGHz, as the full step does:
// an idle core's frequency feeds nothing else a step computes, so its
// decay does not stop the replay. Once a replay moves no idle core they
// are all at a fixed point, and later replays skip them.
func (n *Node) replay(dtSec float64) {
	n.ctrsMoved = true
	for s := 0; s < n.cfg.Sockets; s++ {
		n.servedGBSock[s] += n.attainedSock[s] * dtSec
	}
	n.servedGB += n.attained * dtSec
	ipc := n.qIPC
	decay := !n.idleSettled
	n.idleSettled = true
	for s := 0; s < n.cfg.Sockets; s++ {
		base := s * n.cfg.CoresPerSocket
		for cpu := base; cpu < base+n.maxActive[s]; cpu++ {
			if util := n.coreUtil[cpu]; util > 0 {
				cyc := n.pstates[cpu].Current() * 1e9 * util * dtSec
				n.cycAcc[cpu] += cyc
				n.instAcc[cpu] += cyc * ipc
			} else if decay {
				prev := n.pstates[cpu].Current()
				if !same(n.pstates[cpu].StepAlpha(0, n.qAlpha), prev) {
					n.idleSettled = false
				}
			}
		}
	}
	for s := 0; s < n.cfg.Sockets; s++ {
		pkg := n.pkgPowerW[s]
		n.pkgJ += pkg * dtSec
		n.drmJ += n.drmPowerW[s] * dtSec
		n.accumulateEnergy(s, pkg, n.drmPowerW[s], dtSec)
	}
	for _, g := range n.gpus {
		g.energyJ += g.powerW * dtSec
		n.gpuJ += g.powerW * dtSec
	}
}

// step is the full step. It records whether it moved any state other
// than the accumulators, and its inputs, for the next Step to compare.
func (n *Node) step(dt time.Duration) {
	dtSec := dt.Seconds()
	n.ctrsMoved = true
	if g := n.space.LimitGen(); g != n.limGen {
		n.refreshLimits()
	}
	// moved: this step changed state the next step reads. A drained
	// daemon entry, a busy core's new P-state, a new utilisation or
	// uncore frequency, a memo miss and a republished status all count;
	// refreshed limits do not, since the next step compares the limit
	// generation itself, and neither does an idle core's decay, which
	// replay repeats.
	moved := n.daemonHead < len(n.daemon)
	misses := n.powMiss
	// One blend factor per controller family: every core shares
	// CoreTau and every socket shares UncoreTau, so the divisions are
	// per-tick invariants, not per-core ones.
	uncAlpha := float64(dt) / float64(n.cfg.UncoreTau)
	if uncAlpha > 1 {
		uncAlpha = 1
	}
	coreAlpha := float64(dt) / float64(n.cfg.CoreTau)
	if coreAlpha > 1 {
		coreAlpha = 1
	}

	// 1. Resolve each socket's uncore target from the MSR limit and
	// the TDP clamp, then slew the effective frequency. The status
	// ratio is quantised to 100 MHz steps, so it changes far less often
	// than the effective frequency — republish only on change.
	for s := 0; s < n.cfg.Sockets; s++ {
		target := n.limMax[s]
		if n.cfg.TDPClamp && target > n.clampCeil[s] {
			target = n.clampCeil[s]
		}
		if target < n.limMin[s] {
			target = n.limMin[s]
		}
		prev := n.uncoreEff[s]
		n.uncoreEff[s] += (target - n.uncoreEff[s]) * uncAlpha
		if !same(n.uncoreEff[s], prev) {
			moved = true
		}
		if status := uint64(msr.HzToRatio(n.uncoreEff[s] * 1e9)); status != n.lastStatus[s] {
			n.space.Poke(n.cpu0[s], msr.UncorePerfStatus, status)
			n.lastStatus[s] = status
			moved = true
		}
	}

	// 2. Serve memory demand: split across sockets (interleaved
	// allocation, optionally skewed toward socket 0 for
	// NUMA-imbalanced workloads), each socket caps at BW(f).
	var attained float64
	sockTraffic := n.sockTraffic
	for s := 0; s < n.cfg.Sockets; s++ {
		bw := n.cfg.BWAt(n.uncoreEff[s])
		served := n.demand.MemGBs * n.socketShare(s)
		if served > bw {
			served = bw
		}
		sockTraffic[s] = served
		n.attainedSock[s] = served
		n.servedGBSock[s] += served * dtSec
		attained += served
	}
	n.attained = attained
	n.servedGB += attained * dtSec

	// Service ratio drives the IPC the cores achieve on memory work.
	serviceRatio := 1.0
	if n.demand.MemGBs > 1e-9 {
		serviceRatio = attained / n.demand.MemGBs
		if serviceRatio > 1 {
			serviceRatio = 1
		}
	}

	// 3. Drain daemon work for this step. The queue advances by head
	// index instead of re-slicing so the backing array is reused once
	// drained — steady state appends without allocating.
	n.daemonBusyNow = 0
	var daemonW float64
	budget := dt
	for n.daemonHead < len(n.daemon) && budget > 0 {
		w := &n.daemon[n.daemonHead]
		use := w.remaining
		if use > budget {
			use = budget
		}
		frac := float64(use) / float64(dt)
		n.daemonBusyNow += w.cores * frac
		daemonW += w.extraW * frac
		w.remaining -= use
		budget -= use
		n.daemonBusySec += use.Seconds()
		if w.remaining <= 0 {
			n.daemonHead++
		}
	}
	if n.daemonHead > 0 && n.daemonHead == len(n.daemon) {
		n.daemon = n.daemon[:0]
		n.daemonHead = 0
	}

	// 4. Distribute busy cores across sockets and step per-core DVFS.
	// Cores beyond a socket's all-time activity watermark have never
	// left the idle P-state: their target equals their current
	// frequency exactly (both MinGHz), so stepping them is a bitwise
	// no-op and the loop stops at the watermark instead.
	busyPerSock := n.demand.CPUBusyCores / float64(n.cfg.Sockets)
	beta := n.demand.MemBoundFrac
	ipc := n.cfg.CoreIPC * ((1 - beta) + beta*serviceRatio)
	for s := 0; s < n.cfg.Sockets; s++ {
		busy := busyPerSock
		if s == 0 {
			busy += n.daemonBusyNow
		}
		base := s * n.cfg.CoresPerSocket
		watermark := n.maxActive[s]
		for c := 0; c < n.cfg.CoresPerSocket; c++ {
			util := 0.0
			switch {
			case busy >= 1:
				util = 0.9
				busy--
			case busy > 0:
				util = 0.9 * busy
				busy = 0
			}
			if util > 0 {
				if c >= watermark {
					watermark = c + 1
				}
			} else if c >= watermark {
				// This core and every following one is idle now and was
				// never active: pinned at MinGHz exactly, nothing to do.
				break
			}
			cpu := base + c
			prev := n.pstates[cpu].Current()
			if !same(n.coreUtil[cpu], util) {
				moved = true
			}
			n.coreUtil[cpu] = util
			f := n.pstates[cpu].StepAlpha(util, coreAlpha)
			if util > 0 && !same(f, prev) {
				moved = true
			}
			if util > 0 {
				cyc := f * 1e9 * util * dtSec
				n.cycAcc[cpu] += cyc
				n.instAcc[cpu] += cyc * ipc
			}
		}
		if watermark != n.maxActive[s] {
			moved = true
		}
		n.maxActive[s] = watermark
	}

	// 5. Power and energy per socket.
	stepGHz := 0.1 * float64(dt) / float64(10*time.Millisecond)
	for s := 0; s < n.cfg.Sockets; s++ {
		base := s * n.cfg.CoresPerSocket
		intensity := n.demand.CPUIntensity
		if intensity <= 0 {
			intensity = 1
		}
		var coreW float64
		for c := 0; c < n.maxActive[s]; c++ {
			cpu := base + c
			if u := n.coreUtil[cpu]; u > 0 {
				coreW += n.cfg.Core.MaxPerCoreWatts * intensity * u *
					n.relPowMemo(n.pstates[cpu].Current()/n.cfg.CoreMaxGHz)
			}
		}
		coreW += n.cfg.Core.IdleWatts
		uncW := n.cfg.Uncore.Power(n.uncoreEff[s]/n.cfg.UncoreMaxGHz, sockTraffic[s])
		n.uncPowerW[s] = uncW
		pkg := coreW + uncW
		if s == 0 {
			pkg += daemonW
		}
		n.pkgPowerW[s] = pkg
		n.drmPowerW[s] = n.cfg.Dram.Power(sockTraffic[s])

		n.pkgJ += pkg * dtSec
		n.drmJ += n.drmPowerW[s] * dtSec
		n.accumulateEnergy(s, pkg, n.drmPowerW[s], dtSec)

		// TDP clamp dynamics: back off 100 MHz per 10 ms above 97 %
		// of the active limit, recover at the same rate below 90 %.
		// The active limit is the TDP unless software set a lower PL1
		// cap through MSR_PKG_POWER_LIMIT (RAPL power capping).
		if n.cfg.TDPClamp {
			prev := n.clampCeil[s]
			limit := n.cfg.TDPWatts
			if pl1 := n.pl1W[s]; n.pl1On[s] && pl1 > 0 && pl1 < limit {
				limit = pl1
			}
			switch {
			case pkg > 0.97*limit:
				n.clampCeil[s] -= stepGHz
				if n.clampCeil[s] < n.cfg.UncoreMinGHz {
					n.clampCeil[s] = n.cfg.UncoreMinGHz
				}
			case pkg < 0.90*limit:
				n.clampCeil[s] += stepGHz
				if n.clampCeil[s] > n.cfg.UncoreMaxGHz {
					n.clampCeil[s] = n.cfg.UncoreMaxGHz
				}
			}
			if !same(n.clampCeil[s], prev) {
				moved = true
			}
		}
	}

	// 6. GPUs.
	for _, g := range n.gpus {
		g.smUtil = n.demand.GPUSMUtil
		g.memUtil = n.demand.GPUMemUtil
		prev := g.clock.Current()
		if !same(g.clock.Step(g.smUtil, dt), prev) {
			moved = true
		}
		g.powerW = g.spec.Power.Power(g.smUtil, g.clock.Rel(), g.memUtil)
		g.energyJ += g.powerW * dtSec
		n.gpuJ += g.powerW * dtSec
	}

	n.quiet = !moved && n.powMiss == misses && !n.noReplay
	n.idleSettled = false
	if n.quiet {
		n.qDemand, n.qDt, n.qIPC, n.qAlpha = n.demand, dt, ipc, coreAlpha
	}
}

// accumulateEnergy adds joules to the socket's pending RAPL units,
// carrying fractional units between steps; flushEnergy publishes them.
func (n *Node) accumulateEnergy(s int, pkgW, drmW, dtSec float64) {
	const unitsPerJoule = 16384 // 2^14, matching MSR_RAPL_POWER_UNIT default

	n.pkgEnergyAcc[s] += pkgW * dtSec * unitsPerJoule
	pu := uint64(n.pkgEnergyAcc[s])
	if pu > 0 {
		n.pkgEnergyAcc[s] -= float64(pu)
	}
	n.drmEnergyAcc[s] += drmW * dtSec * unitsPerJoule
	du := uint64(n.drmEnergyAcc[s])
	if du > 0 {
		n.drmEnergyAcc[s] -= float64(du)
	}
	n.pending[s].pkg += pu
	n.pending[s].drm += du
}

// energyUnits is one socket's pending RAPL units.
type energyUnits struct{ pkg, drm uint64 }

// flushEnergy publishes the pending RAPL units, both counters of a
// socket under one register-file lock. Σ pending is zero only when
// every step's units were, so the registers' written bits are set
// exactly when per-step bumps would have set them.
func (n *Node) flushEnergy() {
	for s, cpu := range n.cpu0 {
		if p := n.pending[s]; p.pkg|p.drm != 0 {
			n.space.BumpEnergy(cpu, p.pkg, p.drm)
			n.pending[s] = energyUnits{}
		}
	}
}

// relPowMemo is rel^cfg.Core.FreqExp, clamped to 0 and 1 outside
// (0, 1), behind a tiny direct-search memo keyed on the exact bits of
// rel. The power is pure, so a hit returns the identical float64 the
// evaluation would have produced — byte-identity is preserved by
// construction. Cores whose utilisation histories match carry
// bit-identical frequencies, so a step needs only a handful of distinct
// evaluations.
func (n *Node) relPowMemo(rel float64) float64 {
	if rel <= 0 {
		return 0
	}
	if rel >= 1 {
		return 1
	}
	key := math.Float64bits(rel)
	for i := 0; i < n.powLen; i++ {
		if n.powKey[i] == key {
			return n.powVal[i]
		}
	}
	n.powMiss++
	v := n.corePow.Of(rel)
	if n.powLen < len(n.powKey) {
		n.powKey[n.powLen] = key
		n.powVal[n.powLen] = v
		n.powLen++
	} else {
		n.powKey[n.powIns] = key
		n.powVal[n.powIns] = v
		n.powIns = (n.powIns + 1) % len(n.powKey)
	}
	return v
}

// flushCoreCounters publishes the per-core accumulators into the
// register file (called before runtime reads of the fixed counters).
// Only the first read after the counters moved publishes; the rest of
// the sweep would store the same values again.
func (n *Node) flushCoreCounters() {
	if !n.ctrsMoved {
		return
	}
	n.ctrsMoved = false
	for cpu := range n.instAcc {
		n.space.Poke(cpu, msr.FixedCtrInstRetired, uint64(n.instAcc[cpu]))
		n.space.Poke(cpu, msr.FixedCtrCPUCycles, uint64(n.cycAcc[cpu]))
	}
}

// nodeDevice is the msr.Device runtimes use: reads of the counters the
// node publishes lazily see current accumulator state.
type nodeDevice struct{ n *Node }

// fixedCounter reports the core-scope counters the node publishes from
// its accumulators.
func fixedCounter(reg uint32) bool {
	return reg == msr.FixedCtrInstRetired || reg == msr.FixedCtrCPUCycles
}

// energyCounter reports the RAPL energy-status registers the node
// publishes from its pending units.
func energyCounter(reg uint32) bool {
	return reg == msr.PkgEnergyStatus || reg == msr.DramEnergyStatus
}

// Read implements msr.Device.
func (d nodeDevice) Read(cpu int, reg uint32) (uint64, error) {
	switch {
	case fixedCounter(reg):
		d.n.flushCoreCounters()
	case energyCounter(reg):
		d.n.flushEnergy()
	}
	return d.n.space.Read(cpu, reg)
}

// Write implements msr.Device. A write to a fixed counter is
// overwritten by the next read's publish, as it always was; pending
// energy is published before a write to an energy register, so the
// write lands on the counter an eager publish would have left.
func (d nodeDevice) Write(cpu int, reg uint32, val uint64) error {
	switch {
	case fixedCounter(reg):
		d.n.ctrsMoved = true
	case energyCounter(reg):
		d.n.flushEnergy()
	}
	return d.n.space.Write(cpu, reg, val)
}
