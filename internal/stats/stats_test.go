package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanStd(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almost(got, 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Min(nil) did not panic")
		}
	}()
	Min(nil)
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {-5, 1}, {120, 5}, {10, 1.4},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almost(got, c.want, 1e-12) {
			t.Fatalf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestTrimOutliers(t *testing.T) {
	xs := []float64{10, 10.2, 9.9, 10.1, 10, 55} // 55 is an outlier
	out := TrimOutliers(xs)
	if len(out) != 5 {
		t.Fatalf("TrimOutliers kept %d values: %v", len(out), out)
	}
	for _, x := range out {
		if x > 11 {
			t.Fatalf("outlier %v survived", x)
		}
	}
	if got := TrimmedMean(xs); got > 10.3 {
		t.Fatalf("TrimmedMean = %v, want ~10.04", got)
	}
	// Fewer than 4 samples: untouched.
	small := []float64{1, 100, 3}
	if got := TrimOutliers(small); len(got) != 3 {
		t.Fatalf("small-sample trim = %v", got)
	}
}

func TestTrimOutliersDoesNotMutate(t *testing.T) {
	xs := []float64{5, 5, 5, 5, 500}
	TrimOutliers(xs)
	if xs[4] != 500 {
		t.Fatal("TrimOutliers mutated its input")
	}
}

func TestJaccard(t *testing.T) {
	a := []bool{true, true, false, false}
	b := []bool{true, false, true, false}
	if got := Jaccard(a, b); !almost(got, 1.0/3.0, 1e-12) {
		t.Fatalf("Jaccard = %v, want 1/3", got)
	}
	if got := Jaccard(a, a); got != 1 {
		t.Fatalf("self Jaccard = %v, want 1", got)
	}
	empty := []bool{false, false}
	if got := Jaccard(empty, empty); got != 1 {
		t.Fatalf("empty-union Jaccard = %v, want 1", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length-mismatch Jaccard did not panic")
		}
	}()
	Jaccard(a, empty)
}

// Property: Jaccard is symmetric and bounded in [0,1].
func TestJaccardProperties(t *testing.T) {
	prop := func(bits []byte) bool {
		a := make([]bool, len(bits))
		b := make([]bool, len(bits))
		for i, x := range bits {
			a[i] = x&1 != 0
			b[i] = x&2 != 0
		}
		j1 := Jaccard(a, b)
		j2 := Jaccard(b, a)
		return j1 == j2 && j1 >= 0 && j1 <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestParetoFront(t *testing.T) {
	pts := []Point{
		{X: 1, Y: 5, Label: "a"},
		{X: 2, Y: 3, Label: "b"},
		{X: 3, Y: 2, Label: "c"},
		{X: 3, Y: 4, Label: "dominated-by-b"},
		{X: 5, Y: 1, Label: "d"},
		{X: 6, Y: 6, Label: "dominated-hard"},
	}
	front := ParetoFront(pts)
	want := map[string]bool{"a": true, "b": true, "c": true, "d": true}
	if len(front) != len(want) {
		t.Fatalf("front = %+v", front)
	}
	for _, p := range front {
		if !want[p.Label] {
			t.Fatalf("unexpected front member %q", p.Label)
		}
	}
	// Sorted by X.
	for i := 1; i < len(front); i++ {
		if front[i].X < front[i-1].X {
			t.Fatalf("front not sorted: %+v", front)
		}
	}
}

// Property: no front member dominates another front member, and every
// excluded point is dominated by some front member.
func TestParetoFrontProperties(t *testing.T) {
	prop := func(raw []struct{ X, Y int8 }) bool {
		pts := make([]Point, len(raw))
		for i, r := range raw {
			pts[i] = Point{X: float64(r.X), Y: float64(r.Y)}
		}
		front := ParetoFront(pts)
		for i, p := range front {
			for j, q := range front {
				if i != j && Dominates(p, q) {
					return false
				}
			}
		}
		inFront := func(p Point) bool {
			for _, q := range front {
				if q.X == p.X && q.Y == p.Y {
					return true
				}
			}
			return false
		}
		for _, p := range pts {
			if inFront(p) {
				continue
			}
			dominated := false
			for _, q := range front {
				if Dominates(q, p) {
					dominated = true
					break
				}
			}
			if !dominated {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceToFront(t *testing.T) {
	front := []Point{{X: 0, Y: 0}}
	if got := DistanceToFront(Point{X: 3, Y: 4}, front, 1, 1); !almost(got, 5, 1e-12) {
		t.Fatalf("distance = %v, want 5", got)
	}
	if got := DistanceToFront(Point{X: 3, Y: 4}, front, 3, 4); !almost(got, math.Sqrt2, 1e-12) {
		t.Fatalf("scaled distance = %v, want sqrt2", got)
	}
	if !math.IsInf(DistanceToFront(Point{}, nil, 1, 1), 1) {
		t.Fatal("distance to empty front should be +Inf")
	}
}

func TestHasNaN(t *testing.T) {
	if HasNaN([]float64{1, 2, 3}) {
		t.Fatal("finite slice flagged as NaN")
	}
	if !HasNaN([]float64{1, math.NaN(), 3}) {
		t.Fatal("NaN not detected")
	}
	if HasNaN(nil) {
		t.Fatal("empty slice flagged as NaN")
	}
}

// TestPercentileNaNPropagates pins the NaN policy: sort.Float64s
// leaves NaNs in unspecified positions, so a quartile over NaN-tainted
// data must be NaN, never a plausible-looking garbage value.
func TestPercentileNaNPropagates(t *testing.T) {
	xs := []float64{5, math.NaN(), 1, 3, 2, 4}
	for _, p := range []float64{0, 25, 50, 75, 100} {
		if v := Percentile(xs, p); !math.IsNaN(v) {
			t.Fatalf("Percentile(%v, %v) = %v, want NaN", xs, p, v)
		}
	}
}

// TestTrimOutliersNaNPolicy: a NaN input must survive trimming (so the
// caller sees the corruption), and must not cause finite samples to be
// dropped alongside it.
func TestTrimOutliersNaNPolicy(t *testing.T) {
	xs := []float64{1, 2, math.NaN(), 3, 4, 100}
	got := TrimOutliers(xs)
	if len(got) != len(xs) {
		t.Fatalf("NaN-tainted input must be returned unchanged: got %d of %d values", len(got), len(xs))
	}
	var nans int
	for _, v := range got {
		if math.IsNaN(v) {
			nans++
		}
	}
	if nans != 1 {
		t.Fatalf("NaN silently dropped: %v", got)
	}
}

func TestTrimmedMeanNaNPropagates(t *testing.T) {
	if v := TrimmedMean([]float64{1, 2, math.NaN(), 3, 4}); !math.IsNaN(v) {
		t.Fatalf("TrimmedMean over NaN-tainted input = %v, want NaN", v)
	}
	// Finite data is unaffected by the NaN path.
	if v := TrimmedMean([]float64{1, 2, 3, 4, 100}); math.IsNaN(v) || v > 3 {
		t.Fatalf("finite trimmed mean = %v, want outlier 100 trimmed", v)
	}
}
