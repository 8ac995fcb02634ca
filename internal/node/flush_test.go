package node

import (
	"reflect"
	"testing"
	"time"

	"github.com/spear-repro/magus/internal/msr"
	"github.com/spear-repro/magus/internal/workload"
)

// sweep reads both fixed counters of every CPU, as UPS does.
func sweep(t *testing.T, n *Node) {
	t.Helper()
	dev := n.MSRDevice()
	for cpu := 0; cpu < n.Space().CPUs(); cpu++ {
		for _, reg := range []uint32{msr.FixedCtrInstRetired, msr.FixedCtrCPUCycles} {
			if _, err := dev.Read(cpu, reg); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// checkPublished fails unless every CPU's fixed counters in the register
// file equal its accumulators.
func checkPublished(t *testing.T, n *Node) {
	t.Helper()
	for cpu := range n.instAcc {
		inst := n.Space().Peek(cpu, msr.FixedCtrInstRetired)
		cyc := n.Space().Peek(cpu, msr.FixedCtrCPUCycles)
		if inst != uint64(n.instAcc[cpu]) || cyc != uint64(n.cycAcc[cpu]) {
			t.Fatalf("cpu %d publishes %d/%d, accumulators hold %d/%d",
				cpu, inst, cyc, uint64(n.instAcc[cpu]), uint64(n.cycAcc[cpu]))
		}
	}
}

// TestCounterSweepFlushesOncePerStep checks the once-per-step publish:
// the first fixed-counter read after a Step publishes every CPU, and the
// rest of the sweep publishes nothing, so the register file after
// reading CPU 0 alone equals the one after a full sweep.
func TestCounterSweepFlushesOncePerStep(t *testing.T) {
	n := New(IntelA100())
	n.SetDemand(workload.Demand{CPUBusyCores: 30, MemGBs: 100, MemBoundFrac: 0.5})
	stepFor(n, 50*time.Millisecond)
	if !n.ctrsMoved {
		t.Fatal("Step left the counters-moved flag clear")
	}

	if _, err := n.MSRDevice().Read(0, msr.FixedCtrCPUCycles); err != nil {
		t.Fatal(err)
	}
	if n.ctrsMoved {
		t.Fatal("a fixed-counter read left the flag set")
	}
	checkPublished(t, n)
	one := n.Space().State()

	// A sentinel in CPU 7's counter survives the sweep only if no later
	// read publishes again.
	n.Space().Poke(7, msr.FixedCtrInstRetired, 12345)
	sweep(t, n)
	if v := n.Space().Peek(7, msr.FixedCtrInstRetired); v != 12345 {
		t.Fatalf("the sweep published again: cpu 7 reads %d, want the sentinel", v)
	}
	n.Space().Poke(7, msr.FixedCtrInstRetired, uint64(n.instAcc[7]))
	if all := n.Space().State(); !reflect.DeepEqual(all, one) {
		t.Fatal("register file after a full sweep differs from the one after reading CPU 0")
	}

	// The next step moves the counters and the next read publishes them.
	n.Step(50*time.Millisecond, time.Millisecond)
	sweep(t, n)
	checkPublished(t, n)

	// A write through the device is overwritten by the next read, as
	// before the flag existed.
	if err := n.MSRDevice().Write(3, msr.FixedCtrCPUCycles, 1); err != nil {
		t.Fatal(err)
	}
	sweep(t, n)
	checkPublished(t, n)
}

// TestRestoredNodePublishesCounters checks that Restore sets the flag:
// a snapshot taken between a Step and the next read holds stale
// counters, and the restored node's first read must publish, exactly as
// the original's does.
func TestRestoredNodePublishesCounters(t *testing.T) {
	orig := New(IntelA100())
	orig.SetDemand(workload.Demand{CPUBusyCores: 12, MemGBs: 80, MemBoundFrac: 0.3})
	stepFor(orig, 20*time.Millisecond)
	sweep(t, orig)
	orig.Step(20*time.Millisecond, time.Millisecond)
	st := orig.State()

	r := New(IntelA100())
	sweep(t, r) // clears r's flag, so only Restore can set it
	if err := r.Restore(st); err != nil {
		t.Fatal(err)
	}
	if !r.ctrsMoved {
		t.Fatal("Restore left the counters-moved flag clear")
	}
	if _, err := r.MSRDevice().Read(0, msr.FixedCtrInstRetired); err != nil {
		t.Fatal(err)
	}
	checkPublished(t, r)
	sweep(t, orig)
	if a, b := r.Space().State(), orig.Space().State(); !reflect.DeepEqual(a, b) {
		t.Fatal("restored node's register file differs from the original's after a read")
	}
}
