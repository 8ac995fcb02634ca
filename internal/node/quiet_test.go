package node

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/spear-repro/magus/internal/msr"
	"github.com/spear-repro/magus/internal/workload"
)

// stateBits renders a node's full state so that two renderings are
// equal only when every float is bit-equal (%v prints the shortest
// round-tripping form and keeps the sign of zero).
func stateBits(n *Node) string { return fmt.Sprintf("%v", n.State()) }

// TestQuietReplayMatchesFullPath drives a replaying node and one forced
// down the full path with the same inputs and requires bit-equal
// State() after every step. Each case must take the replay path on some
// steps, or it tests nothing.
func TestQuietReplayMatchesFullPath(t *testing.T) {
	busy := workload.Demand{MemGBs: 150, CPUBusyCores: 12, MemBoundFrac: 0.6, GPUSMUtil: 0.9, GPUMemUtil: 0.5}
	negZero := math.Copysign(0, -1)
	writeLimit := func(n *Node, maxGHz float64) {
		for s := 0; s < n.cfg.Sockets; s++ {
			val := msr.EncodeUncoreLimit(maxGHz*1e9, n.cfg.UncoreMinGHz*1e9)
			if err := n.MSRDevice().Write(n.cpu0[s], msr.UncoreRatioLimit, val); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name string
		// Before step snapAt both nodes are checkpointed; before step
		// restoreAt (0 = never) the checkpoints are restored, into new
		// nodes when fresh is set and into the running ones otherwise.
		snapAt, restoreAt int
		fresh             bool
		steps             int
		drive             func(n *Node, i int)
	}{
		{name: "idle after done", steps: 3000, drive: func(n *Node, i int) {
			if i < 300 {
				n.SetDemand(busy)
			} else {
				n.SetDemand(workload.Demand{})
			}
		}},
		{name: "daemon bursts", steps: 4000, drive: func(n *Node, i int) {
			n.SetDemand(workload.Demand{})
			if i%300 == 0 { // every other burst is extra power alone, no busy core
				n.AddDaemonBusy(2*time.Millisecond+time.Duration(i%7)*100*time.Microsecond, float64(i/300%2), 0.5)
			}
		}},
		{name: "limit write while quiet", steps: 5000, drive: func(n *Node, i int) {
			n.SetDemand(workload.Demand{})
			switch i {
			case 2500:
				writeLimit(n, n.cfg.UncoreMinGHz)
			case 3500: // the same value again: a new generation, no new limit
				writeLimit(n, n.cfg.UncoreMinGHz)
			case 4000:
				writeLimit(n, n.cfg.UncoreMaxGHz)
			}
		}},
		{name: "PL1 under the TDP clamp", steps: 4000, drive: func(n *Node, i int) {
			n.SetDemand(workload.Demand{CPUBusyCores: 40, MemGBs: 300, MemBoundFrac: 0.6})
			if i == 0 {
				for s := 0; s < n.cfg.Sockets; s++ {
					val := msr.EncodePowerLimit(150, 0.125, true)
					if err := n.MSRDevice().Write(n.cpu0[s], msr.PkgPowerLimit, val); err != nil {
						t.Fatal(err)
					}
				}
			}
		}},
		{name: "checkpoint while quiet, restore into new nodes", steps: 3000, snapAt: 2500, restoreAt: 2500, fresh: true,
			drive: func(n *Node, i int) {
				if i < 200 {
					n.SetDemand(busy)
				} else {
					n.SetDemand(workload.Demand{})
				}
			}},
		{name: "restore a busy checkpoint into quiet nodes", steps: 3000, snapAt: 100, restoreAt: 2500,
			drive: func(n *Node, i int) {
				if i < 200 {
					n.SetDemand(busy)
				} else {
					n.SetDemand(workload.Demand{})
				}
			}},
		{name: "-0 demand", steps: 4000, drive: func(n *Node, i int) {
			d := workload.Demand{}
			if (i/500)%2 == 1 {
				d.MemGBs, d.CPUBusyCores, d.GPUSMUtil = negZero, negZero, negZero
			}
			n.SetDemand(d)
		}},
	}
	dt := time.Millisecond
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fast, full := New(IntelA100()), New(IntelA100())
			full.noReplay = true
			replays := 0
			var snapFast, snapFull State
			for i := 0; i < tc.steps; i++ {
				if i == tc.snapAt && i > 0 {
					snapFast, snapFull = fast.State(), full.State()
				}
				if i == tc.restoreAt && i > 0 {
					if !fast.quiet {
						t.Fatalf("step %d: the node is not quiet at the restore", i)
					}
					if tc.fresh {
						fast, full = New(IntelA100()), New(IntelA100())
						full.noReplay = true
					}
					if err := fast.Restore(snapFast); err != nil {
						t.Fatal(err)
					}
					if err := full.Restore(snapFull); err != nil {
						t.Fatal(err)
					}
				}
				tc.drive(fast, i)
				tc.drive(full, i)
				if fast.canReplay(dt) {
					replays++
				}
				fast.Step(time.Duration(i)*dt, dt)
				full.Step(time.Duration(i)*dt, dt)
				if a, b := stateBits(fast), stateBits(full); a != b {
					t.Fatalf("step %d: replayed state differs from the full path's", i)
				}
			}
			if replays == 0 {
				t.Fatal("no step took the replay path")
			}
			t.Logf("%d of %d steps replayed", replays, tc.steps)
		})
	}
}

// TestLazyRAPLMatchesEager checks that deferring the RAPL publish never
// shows: a node that publishes after every step (the eager reference)
// and one that publishes only when read step through the same random
// demand, and every read of an energy register through the device sees
// the eager value — across a 2^32 wrap, a rejected device write and a
// raw register poke between steps.
func TestLazyRAPLMatchesEager(t *testing.T) {
	lazy, eager := New(IntelA100()), New(IntelA100())
	rng := rand.New(rand.NewSource(7))
	regs := []uint32{msr.PkgEnergyStatus, msr.DramEnergyStatus}
	// Start both counters 10,000 units short of the wrap.
	for _, n := range []*Node{lazy, eager} {
		for s := 0; s < n.cfg.Sockets; s++ {
			for _, reg := range regs {
				n.Space().Poke(n.cpu0[s], reg, msr.EnergyCounterMask-10000)
			}
		}
	}
	wrapped := false
	last := uint64(msr.EnergyCounterMask - 10000)
	dt := time.Millisecond
	var d workload.Demand
	for i := 0; i < 3000; i++ {
		if rng.Intn(50) == 0 { // demand holds for stretches, so steps also replay
			d = workload.Demand{MemGBs: float64(rng.Intn(400)), CPUBusyCores: float64(rng.Intn(60)), GPUSMUtil: rng.Float64()}
		}
		lazy.SetDemand(d)
		eager.SetDemand(d)
		lazy.Step(time.Duration(i)*dt, dt)
		eager.Step(time.Duration(i)*dt, dt)
		eager.flushEnergy()

		switch rng.Intn(10) {
		case 0:
			for s := 0; s < lazy.cfg.Sockets; s++ {
				for _, reg := range regs {
					got, err := lazy.MSRDevice().Read(lazy.cpu0[s], reg)
					if err != nil {
						t.Fatal(err)
					}
					if want := eager.space.Peek(eager.cpu0[s], reg); got != want {
						t.Fatalf("step %d socket %d reg %#x: lazy read %d, eager %d", i, s, reg, got, want)
					}
					if s == 0 && reg == msr.PkgEnergyStatus {
						wrapped = wrapped || got < last
						last = got
					}
				}
			}
		case 1:
			errLazy := lazy.MSRDevice().Write(lazy.cpu0[1], msr.DramEnergyStatus, 5)
			errEager := eager.MSRDevice().Write(eager.cpu0[1], msr.DramEnergyStatus, 5)
			if !errors.Is(errLazy, msr.ErrReadOnly) || !errors.Is(errEager, msr.ErrReadOnly) {
				t.Fatalf("step %d: energy register writes returned %v / %v, want read-only", i, errLazy, errEager)
			}
		case 2:
			if i%7 == 0 {
				lazy.Space().Poke(lazy.cpu0[0], msr.DramEnergyStatus, uint64(i))
				eager.Space().Poke(eager.cpu0[0], msr.DramEnergyStatus, uint64(i))
			}
		}
	}
	if !wrapped {
		t.Fatal("the package counter never wrapped; the test misses the 2^32 case")
	}
	if a, b := stateBits(lazy), stateBits(eager); a != b {
		t.Fatal("lazy node's final state differs from the eager node's")
	}
}

// TestMemoThrashStaysOnFullPath covers the one way a settled node can
// still change state: a relPow memo that thrashes. Nine busy cores sit
// on nine distinct fixed-point frequencies, more keys than the memo's
// eight slots, so every step misses and rotates the memo while every
// frequency, the uncore and the GPUs stand still. Such a node must
// never replay. A 100 µs step makes the P-state blend small enough
// that a frequency a few ulps from its target is a fixed point.
func TestMemoThrashStaysOnFullPath(t *testing.T) {
	cfg := IntelA100()
	cfg.Sockets = 4 // one fractional core per socket: four more keys
	d := workload.Demand{CPUBusyCores: 4 * 5.5}
	dt := 100 * time.Microsecond
	warm := New(cfg)
	warm.SetDemand(d)
	for i := 0; i < 30000; i++ {
		warm.Step(time.Duration(i)*dt, dt)
	}
	st := warm.State()

	alpha := float64(dt) / float64(cfg.CoreTau)
	// fixedPoints returns want frequencies from cpu's settled one upward
	// that a step at util leaves bit-identical, all below CoreMaxGHz (the
	// memo stores no key for a relative frequency of 1).
	fixedPoints := func(cpu int, util float64, want int) []float64 {
		var out []float64
		for x, i := st.CoreGHz[cpu], 0; i < 20 && len(out) < want && x < cfg.CoreMaxGHz; i++ {
			ps := warm.pstates[cpu]
			ps.SetCurrent(x)
			if ps.StepAlpha(util, alpha) == x {
				out = append(out, x)
			}
			x = math.Nextafter(x, math.Inf(1))
		}
		if len(out) < want {
			t.Fatalf("cpu %d: %d fixed points from %v up, want %d", cpu, len(out), st.CoreGHz[cpu], want)
		}
		return out
	}
	for c, f := range fixedPoints(0, 0.9, 5) {
		st.CoreGHz[c] = f
	}
	frac := fixedPoints(5, 0.45, cfg.Sockets)
	for s := 0; s < cfg.Sockets; s++ {
		st.CoreGHz[s*cfg.CoresPerSocket+5] = frac[s]
	}

	fast, full := New(cfg), New(cfg)
	full.noReplay = true
	for _, n := range []*Node{fast, full} {
		if err := n.Restore(st); err != nil {
			t.Fatal(err)
		}
		n.SetDemand(d)
	}
	for i := 0; i < 100; i++ {
		if i > 0 && fast.canReplay(dt) {
			t.Fatalf("step %d: a node whose memo thrashes took the replay path", i)
		}
		misses := fast.powMiss
		fast.Step(time.Duration(i)*dt, dt)
		full.Step(time.Duration(i)*dt, dt)
		if fast.powMiss == misses {
			t.Fatalf("step %d: no memo miss; the case no longer thrashes", i)
		}
		if a, b := stateBits(fast), stateBits(full); a != b {
			t.Fatalf("step %d: state differs from the full path's", i)
		}
	}
}
