package cpufreq

import (
	"testing"
	"testing/quick"
	"time"
)

func newTest() *PState {
	p := New(0.8, 2.3, 3.4, 5*time.Millisecond)
	return &p
}

func TestTargetShape(t *testing.T) {
	p := newTest()
	if got := p.Target(0); got != 0.8 {
		t.Fatalf("idle target = %v, want min", got)
	}
	if got := p.Target(1); got != 3.4 {
		t.Fatalf("saturated target = %v, want turbo", got)
	}
	if got := p.Target(0.5); got != 2.3 {
		t.Fatalf("mid target = %v, want base", got)
	}
	if got := p.Target(0.25); got <= 0.8 || got >= 2.3 {
		t.Fatalf("quarter target = %v, want in (min, base)", got)
	}
}

func TestStepConvergesToTarget(t *testing.T) {
	p := newTest()
	for i := 0; i < 100; i++ {
		p.Step(1.0, time.Millisecond)
	}
	if got := p.Current(); got < 3.39 {
		t.Fatalf("after sustained load freq = %v, want ≈3.4", got)
	}
	for i := 0; i < 100; i++ {
		p.Step(0, time.Millisecond)
	}
	if got := p.Current(); got > 0.81 {
		t.Fatalf("after idle freq = %v, want ≈0.8", got)
	}
}

func TestStepIsGradual(t *testing.T) {
	p := newTest()
	f1 := p.Step(1.0, time.Millisecond)
	if f1 >= 3.4 {
		t.Fatalf("one step jumped to turbo: %v", f1)
	}
	if f1 <= 0.8 {
		t.Fatalf("one step did not move: %v", f1)
	}
}

func TestReset(t *testing.T) {
	p := newTest()
	p.Step(1, time.Second)
	p.Reset()
	if p.Current() != 0.8 {
		t.Fatalf("Reset: current = %v", p.Current())
	}
}

func TestNewValidation(t *testing.T) {
	cases := [][4]float64{
		{0, 2, 3, 1}, {2, 1, 3, 1}, {1, 3, 2, 1}, {1, 2, 3, 0},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", c)
				}
			}()
			New(c[0], c[1], c[2], time.Duration(c[3])*time.Millisecond)
		}()
	}
}

// Properties: frequency always stays in [min, max] and the target is
// monotone in utilisation.
func TestFrequencyBounds(t *testing.T) {
	prop := func(utils []uint8) bool {
		p := newTest()
		prevTarget := p.Target(0)
		for u := 0; u <= 100; u++ {
			tgt := p.Target(float64(u) / 100)
			if tgt < prevTarget-1e-12 {
				return false
			}
			prevTarget = tgt
		}
		for _, u := range utils {
			f := p.Step(float64(u%101)/100, time.Millisecond)
			if f < 0.8-1e-9 || f > 3.4+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
