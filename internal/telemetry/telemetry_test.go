package telemetry

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func ramp(n int, dt, slope float64) *Series {
	s := &Series{}
	for i := 0; i < n; i++ {
		s.Append(float64(i)*dt, float64(i)*slope)
	}
	return s
}

func TestSeriesBasics(t *testing.T) {
	s := &Series{}
	if s.Len() != 0 || s.Duration() != 0 || s.Mean() != 0 {
		t.Fatal("empty series not zero-valued")
	}
	s.Append(0, 10)
	if s.Mean() != 10 {
		t.Fatalf("single-point mean = %v", s.Mean())
	}
	s.Append(1, 20)
	s.Append(3, 50)
	if s.Len() != 3 || s.Duration() != 3 {
		t.Fatalf("len/duration = %d/%v", s.Len(), s.Duration())
	}
	// Step-held mean: 10 for 1s, 20 for 2s = 50/3.
	if got := s.Mean(); math.Abs(got-50.0/3) > 1e-12 {
		t.Fatalf("Mean = %v, want 16.67", got)
	}
	if got := s.Integrate(); math.Abs(got-50) > 1e-12 {
		t.Fatalf("Integrate = %v, want 50", got)
	}
	if s.Max() != 50 {
		t.Fatalf("Max = %v", s.Max())
	}
}

func TestAppendRejectsBackwardsTime(t *testing.T) {
	s := &Series{}
	s.Append(1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards Append did not panic")
		}
	}()
	s.Append(0.5, 0)
}

func TestMaxPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Max on empty series did not panic")
		}
	}()
	(&Series{}).Max()
}

func TestResample(t *testing.T) {
	// 100 samples, values 0..99 over 9.9s -> 10 bins averaging ~4.5,
	// 14.5, ...
	s := ramp(100, 0.1, 1)
	bins := s.Resample(10)
	if len(bins) != 10 {
		t.Fatalf("bins = %d", len(bins))
	}
	for i, b := range bins {
		want := float64(i)*10 + 4.5
		if math.Abs(b-want) > 1.0 {
			t.Fatalf("bin %d = %v, want ≈%v", i, b, want)
		}
	}
}

func TestResampleSampleAndHold(t *testing.T) {
	// Two points far apart: middle bins inherit the previous value.
	s := &Series{}
	s.Append(0, 5)
	s.Append(10, 9)
	bins := s.Resample(5)
	for i := 0; i < 4; i++ {
		if bins[i] != 5 {
			t.Fatalf("bin %d = %v, want held 5", i, bins[i])
		}
	}
	if bins[4] != 9 {
		t.Fatalf("last bin = %v, want 9", bins[4])
	}
}

func TestResampleValidation(t *testing.T) {
	s := ramp(10, 1, 1)
	for _, fn := range []func(){
		func() { s.Resample(0) },
		func() { (&Series{}).Resample(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid Resample did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestBursts(t *testing.T) {
	s := &Series{}
	for i := 0; i < 100; i++ {
		v := 10.0
		if i >= 40 && i < 60 {
			v = 100
		}
		s.Append(float64(i), v)
	}
	b := s.Bursts(10, 50)
	want := []bool{false, false, false, false, true, true, false, false, false, false}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("bursts = %v, want %v", b, want)
		}
	}
}

func TestBurstJaccard(t *testing.T) {
	mk := func(shift int) *Series {
		s := &Series{}
		for i := 0; i < 200; i++ {
			v := 10.0
			if i >= 50+shift && i < 100+shift {
				v = 100
			}
			s.Append(float64(i), v)
		}
		return s
	}
	if got := BurstJaccard(mk(0), mk(0), 100, 0.5); got != 1 {
		t.Fatalf("identical traces Jaccard = %v", got)
	}
	shifted := BurstJaccard(mk(0), mk(20), 100, 0.5)
	if shifted >= 1 || shifted < 0.3 {
		t.Fatalf("shifted Jaccard = %v, want partial overlap", shifted)
	}
	// Flat traces (no bursts anywhere): defined as 1.
	flat := &Series{}
	flat2 := &Series{}
	for i := 0; i < 10; i++ {
		flat.Append(float64(i), 1)
		flat2.Append(float64(i), 1)
	}
	if got := BurstJaccard(flat, flat2, 10, 2.0); got != 1 {
		t.Fatalf("flat Jaccard = %v, want 1", got)
	}
}

// Property: BurstJaccard is bounded and equals 1 for identical traces.
func TestBurstJaccardProperties(t *testing.T) {
	prop := func(vals []uint16) bool {
		if len(vals) < 2 {
			return true
		}
		s := &Series{}
		for i, v := range vals {
			s.Append(float64(i), float64(v%1000))
		}
		j := BurstJaccard(s, s, 50, 0.5)
		return j == 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRecorder(t *testing.T) {
	r := NewRecorder(10 * time.Millisecond)
	var x float64
	r.Track("x", func() float64 { return x })
	r.Track("twice", func() float64 { return 2 * x })
	for i := 0; i < 100; i++ {
		x = float64(i)
		r.Step(time.Duration(i)*time.Millisecond, time.Millisecond)
	}
	s := r.Series("x")
	if s.Len() != 10 {
		t.Fatalf("sampled %d points, want 10", s.Len())
	}
	if got := r.Series("twice").Values[5]; got != 2*s.Values[5] {
		t.Fatalf("probe values inconsistent: %v vs %v", got, s.Values[5])
	}
	if r.Series("missing") != nil {
		t.Fatal("unknown series not nil")
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "x" || names[1] != "twice" {
		t.Fatalf("Names = %v", names)
	}
}

// TestRecorderGridCadence: with an interval the engine step does not
// divide, the recorder must keep sampling on the fixed grid (first tick
// at or past each multiple of the interval). The pre-fix code
// re-anchored next on the observed tick (next = now + interval), which
// stretched a 2.5 ms interval over 1 ms steps to samples at
// 0, 3, 6, 9, ... instead of the grid's 0, 3, 5, 8, 10, ...
func TestRecorderGridCadence(t *testing.T) {
	r := NewRecorder(2500 * time.Microsecond)
	r.Track("x", func() float64 { return 0 })
	for i := 0; i <= 10; i++ {
		r.Step(time.Duration(i)*time.Millisecond, time.Millisecond)
	}
	got := r.Series("x").Times
	want := []float64{0, 0.003, 0.005, 0.008, 0.010}
	if len(got) != len(want) {
		t.Fatalf("sample times = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("sample %d at %v, want %v (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestRecorderValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewRecorder(0) },
		func() { NewRecorder(time.Second).Track("x", nil) },
		func() {
			r := NewRecorder(time.Second)
			r.Track("x", func() float64 { return 0 })
			r.Track("x", func() float64 { return 0 })
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid recorder use did not panic")
				}
			}()
			fn()
		}()
	}
}
