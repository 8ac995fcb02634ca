package pcm

import (
	"math/rand"
	"testing"
	"time"
)

func TestThroughputFromDeltas(t *testing.T) {
	var served float64
	m := New(func() float64 { return served })

	if gbs, err := m.SystemMemoryThroughput(0); err != nil || gbs != 0 {
		t.Fatalf("baseline read = %v, %v", gbs, err)
	}
	served = 20 // 20 GB over 0.2 s -> 100 GB/s
	gbs, err := m.SystemMemoryThroughput(200 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if gbs < 99.9 || gbs > 100.1 {
		t.Fatalf("throughput = %v, want 100", gbs)
	}
	served = 25 // 5 GB over 0.3 s
	gbs, err = m.SystemMemoryThroughput(500 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if gbs < 16.5 || gbs > 16.8 {
		t.Fatalf("throughput = %v, want ≈16.67", gbs)
	}
	if m.Invocations() != 3 {
		t.Fatalf("invocations = %d, want 3", m.Invocations())
	}
}

func TestZeroIntervalSafe(t *testing.T) {
	var served float64
	m := New(func() float64 { return served })
	m.SystemMemoryThroughput(time.Second)
	served = 10
	gbs, err := m.SystemMemoryThroughput(time.Second)
	if err != nil || gbs != 0 {
		t.Fatalf("zero-interval read = %v, %v", gbs, err)
	}
}

func TestBackwardsCounterErrors(t *testing.T) {
	served := 100.0
	m := New(func() float64 { return served })
	m.SystemMemoryThroughput(0)
	served = 50
	if _, err := m.SystemMemoryThroughput(time.Second); err == nil {
		t.Fatal("backwards counter accepted")
	}
}

func TestNoiseInjection(t *testing.T) {
	// Amplitude 3 scales by a factor in [-2, 4], so some readings
	// must clamp to 0 and the rest follow the seeded stream exactly.
	const amp, seed = 3.0, 11
	ref := rand.New(rand.NewSource(seed))
	var served float64
	m := New(func() float64 { return served })
	z := NewNoise(amp, seed)
	m.SetNoise(z)
	m.SystemMemoryThroughput(0)
	clamped := 0
	for i := 1; i <= 50; i++ {
		served += 10
		gbs, err := m.SystemMemoryThroughput(time.Duration(i) * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		want := 10 * (1 + amp*(ref.Float64()*2-1))
		if want < 0 {
			want = 0
			clamped++
		}
		if gbs != want {
			t.Fatalf("reading %d = %v, want %v", i, gbs, want)
		}
	}
	if clamped == 0 {
		t.Fatal("no reading was clamped to 0")
	}
	if z.Draws() != 50 {
		t.Fatalf("draws = %d, want one per reading (50)", z.Draws())
	}

	// A restored stream continues where the original stood.
	next := 10 * (1 + amp*(ref.Float64()*2-1))
	r := NewNoise(amp, seed)
	r.Restore(z.Draws())
	m.SetNoise(r)
	served += 10
	if gbs, _ := m.SystemMemoryThroughput(51 * time.Second); gbs != max(next, 0) {
		t.Fatalf("reading after restore = %v, want %v", gbs, max(next, 0))
	}

	m.SetNoise(nil)
	served += 10
	if gbs, _ := m.SystemMemoryThroughput(52 * time.Second); gbs != 10 {
		t.Fatalf("clean reading = %v, want 10", gbs)
	}
}

func TestNilCounterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(nil) did not panic")
		}
	}()
	New(nil)
}
