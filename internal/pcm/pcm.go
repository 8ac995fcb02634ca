// Package pcm models the slice of Intel's Performance Counter Monitor
// API that MAGUS consumes: system memory throughput derived from
// integrated-memory-controller traffic counters. This is the *single*
// hardware signal MAGUS reads (§3), chosen because one system-level
// counter read is dramatically cheaper than per-core MSR sweeps.
//
// The monitor computes throughput as the traffic-counter delta over the
// elapsed interval, exactly as PCM's uncore counter facility does. An
// optional seeded noise stream perturbs the readings for robustness
// studies.
package pcm

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/spear-repro/magus/internal/detrand"
)

// Reader is the throughput read surface governors consume. *Monitor
// implements it; the fault-injection layer wraps one Reader in another,
// so consumers never know whether a fault plan is armed.
type Reader interface {
	SystemMemoryThroughput(now time.Duration) (float64, error)
}

// TrafficCounter supplies cumulative served memory traffic in GB — on
// hardware, the sum of IMC read+write CAS counters scaled to bytes; in
// this repo, the node simulator's ServedGB.
type TrafficCounter func() float64

// Monitor converts a traffic counter into interval throughput readings.
type Monitor struct {
	counter TrafficCounter
	noise   *Noise

	lastGB  float64
	lastAt  time.Duration
	started bool

	invocations uint64
}

// New builds a monitor over the given counter.
func New(counter TrafficCounter) *Monitor {
	if counter == nil {
		panic("pcm: nil traffic counter")
	}
	return &Monitor{counter: counter}
}

// Noise is a seeded relative measurement-noise stream: each reading it
// perturbs is scaled by a factor drawn uniformly from [1-A, 1+A].
// Several monitors may share one stream; its position is the draw
// count of a counting source, so a checkpoint can capture and restore
// it.
type Noise struct {
	amp float64
	src *detrand.Source
	rng *rand.Rand
}

// NewNoise builds the amplitude-amp stream seeded with seed.
func NewNoise(amp float64, seed int64) *Noise {
	src := detrand.NewSource(seed)
	return &Noise{amp: amp, src: src, rng: rand.New(src)}
}

// Draws returns the stream position.
func (z *Noise) Draws() uint64 { return z.src.Draws() }

// Restore moves the stream to position draws.
func (z *Noise) Restore(draws uint64) { z.src.Restore(z.src.Seed0(), draws) }

func (z *Noise) apply(gbs float64) float64 {
	return gbs * (1 + z.amp*(z.rng.Float64()*2-1))
}

// SetNoise perturbs every subsequent reading with z (nil clears).
func (m *Monitor) SetNoise(z *Noise) { m.noise = z }

// Invocations returns how many throughput readings were taken —
// overhead accounting for Table 2.
func (m *Monitor) Invocations() uint64 { return m.invocations }

// SystemMemoryThroughput returns the average memory throughput in GB/s
// since the previous call. The first call establishes a baseline and
// returns zero. A zero-length interval also returns zero rather than
// dividing by zero.
func (m *Monitor) SystemMemoryThroughput(now time.Duration) (float64, error) {
	cur := m.counter()
	if cur+1e-9 < m.lastGB {
		return 0, fmt.Errorf("pcm: traffic counter went backwards (%v -> %v)", m.lastGB, cur)
	}
	defer func() {
		m.lastGB = cur
		m.lastAt = now
		m.started = true
		m.invocations++
	}()
	if !m.started || now <= m.lastAt {
		return 0, nil
	}
	gbs := (cur - m.lastGB) / (now - m.lastAt).Seconds()
	if m.noise != nil {
		gbs = m.noise.apply(gbs)
		if gbs < 0 {
			gbs = 0
		}
	}
	return gbs, nil
}
