package core

import (
	"math/rand"
	"testing"
	"time"

	"github.com/spear-repro/magus/internal/governor"
	"github.com/spear-repro/magus/internal/msr"
	"github.com/spear-repro/magus/internal/pcm"
	"github.com/spear-repro/magus/internal/ring"
)

// TestTrendRingMatchesSlice pins the in-place ring evaluation of
// Algorithm 1 to the reference slice implementation over randomized
// histories: the hot path must be a pure storage change, not an
// algorithm change.
func TestTrendRingMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		window := 2 + rng.Intn(12)
		b := ring.New[float64](window)
		n := rng.Intn(2 * window)
		for i := 0; i < n; i++ {
			b.Push(rng.Float64()*200 - 50)
		}
		derivLen := 1 + rng.Intn(window-1)
		inc := rng.Float64() * 20
		dec := rng.Float64() * 30
		want := PredictTrend(b.Snapshot(), derivLen, inc, dec)
		got := predictTrendRing(b, derivLen, inc, dec)
		if got != want {
			t.Fatalf("trial %d: ring trend %v != slice trend %v (len %d derivLen %d)",
				trial, got, want, b.Len(), derivLen)
		}
	}
}

// TestRollingTuneCountMatchesScan drives pushTune with a random bit
// sequence (including warm-up re-entries) and checks the incremental
// count against a full scan of the log after every operation — the
// Algorithm 2 input must never drift.
func TestRollingTuneCountMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := &MAGUS{mdfs: mdfs{cfg: DefaultConfig()}}
	m.tuneLog = ring.Filled(m.cfg.Window, 0)
	for op := 0; op < 5000; op++ {
		if rng.Intn(97) == 0 {
			m.tuneLog.Fill(0)
			m.tuneCount = 0
		} else {
			v := 0
			if rng.Intn(3) == 0 {
				v = 1
			}
			m.pushTune(v)
		}
		scan := 0
		m.tuneLog.Do(func(v int) {
			if v != 0 {
				scan++
			}
		})
		if m.tuneCount != scan {
			t.Fatalf("op %d: rolling count %d != scanned %d", op, m.tuneCount, scan)
		}
		wantHi := HighFrequency(m.tuneLog.Snapshot(), m.cfg.HighFreqThreshold)
		gotHi := float64(m.tuneCount)/float64(m.tuneLog.Len()) >= m.cfg.HighFreqThreshold
		if gotHi != wantHi {
			t.Fatalf("op %d: rolling high-frequency %v != scanned %v", op, gotHi, wantHi)
		}
	}
}

// TestMDFSInvokeZeroAlloc pins the zero-allocation contract on the
// steady-state decision cycle: sensor read, Algorithm 2, Algorithm 1,
// no decision change — no heap allocation.
func TestMDFSInvokeZeroAlloc(t *testing.T) {
	space := msr.NewSpace(2, 4)
	var traffic float64
	env := &governor.Env{
		Dev:          space,
		PCM:          pcm.New(func() float64 { return traffic }),
		Sockets:      2,
		CPUs:         8,
		FirstCPU:     space.FirstCPUOf,
		UncoreMinGHz: 0.8,
		UncoreMaxGHz: 2.2,
	}
	m := New(DefaultConfig())
	if err := m.Attach(env); err != nil {
		t.Fatal(err)
	}
	now := time.Duration(0)
	cycle := func() {
		traffic += 50 * 0.3
		now += 300 * time.Millisecond
		m.Invoke(now)
	}
	for i := 0; i < m.cfg.WarmupCycles+2; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("steady-state MDFS Invoke allocates %v times per cycle, want 0", allocs)
	}
}
