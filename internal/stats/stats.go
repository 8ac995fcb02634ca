// Package stats provides the small statistical toolkit the evaluation
// harness needs: summary statistics, the outlier-trimmed averaging the
// paper applies to repeated runs (§6), Jaccard similarity over binary
// burst sequences (Table 1), and Pareto-frontier extraction for the
// threshold sensitivity analysis (Figure 7).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Min returns the minimum of xs; it panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs; it panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// HasNaN reports whether xs contains a NaN.
func HasNaN(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) {
			return true
		}
	}
	return false
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It panics on an empty slice.
// NaN inputs poison the result: sort.Float64s leaves NaNs in
// unspecified positions, so rather than returning a garbage quartile
// the function propagates NaN, which every caller can detect.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile of empty slice")
	}
	if HasNaN(xs) {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// TrimOutliers removes values outside [Q1 - 1.5·IQR, Q3 + 1.5·IQR] and
// returns the survivors. With fewer than four samples it returns the
// input unchanged (quartiles are meaningless). This is the "outliers were
// removed, and the average of the remaining results was calculated"
// procedure of §6.
//
// NaN policy: a NaN input makes the fences NaN, and every `x >= lo`
// comparison fails — an earlier version therefore dropped *all*
// samples (NaN and finite alike) and fell back to returning the input,
// silently disabling trimming. Worse, a NaN among otherwise-finite
// samples would be silently discarded, hiding a corrupted run (e.g. a
// faulted repeat) inside a clean-looking mean. NaNs now poison the
// result explicitly: the input is returned unchanged, NaNs included,
// so TrimmedMean propagates NaN and the corruption is visible to the
// caller.
func TrimOutliers(xs []float64) []float64 {
	if len(xs) < 4 || HasNaN(xs) {
		return append([]float64(nil), xs...)
	}
	q1 := Percentile(xs, 25)
	q3 := Percentile(xs, 75)
	iqr := q3 - q1
	lo, hi := q1-1.5*iqr, q3+1.5*iqr
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if x >= lo && x <= hi {
			out = append(out, x)
		}
	}
	if len(out) == 0 {
		// Unreachable for finite inputs (the quartiles themselves are
		// always inside the fences), but kept as a safety net.
		return append([]float64(nil), xs...)
	}
	return out
}

// TrimmedMean is Mean(TrimOutliers(xs)). A NaN anywhere in xs yields
// NaN (see TrimOutliers' NaN policy).
func TrimmedMean(xs []float64) float64 { return Mean(TrimOutliers(xs)) }

// Jaccard returns |A∩B| / |A∪B| for two binary sequences of equal
// length, where membership means a true element at that index. Two
// sequences with an empty union (no bursts in either) are defined as
// identical (1.0). It panics when lengths differ.
func Jaccard(a, b []bool) float64 {
	if len(a) != len(b) {
		panic("stats: Jaccard sequences differ in length")
	}
	var inter, union int
	for i := range a {
		if a[i] && b[i] {
			inter++
		}
		if a[i] || b[i] {
			union++
		}
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// Point is a candidate in a two-objective minimisation (Figure 7 plots
// runtime on one axis and energy on the other; both are minimised).
type Point struct {
	X, Y  float64
	Label string
}

// ParetoFront returns the subset of pts not dominated by any other point,
// sorted by X. Point p dominates q when p.X <= q.X, p.Y <= q.Y and p is
// strictly better in at least one objective.
func ParetoFront(pts []Point) []Point {
	front := make([]Point, 0, len(pts))
	for i, p := range pts {
		dominated := false
		for j, q := range pts {
			if i == j {
				continue
			}
			if q.X <= p.X && q.Y <= p.Y && (q.X < p.X || q.Y < p.Y) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	sort.Slice(front, func(i, j int) bool {
		if front[i].X != front[j].X {
			return front[i].X < front[j].X
		}
		return front[i].Y < front[j].Y
	})
	return front
}

// Dominates reports whether p dominates q in two-objective minimisation.
func Dominates(p, q Point) bool {
	return p.X <= q.X && p.Y <= q.Y && (p.X < q.X || p.Y < q.Y)
}

// DistanceToFront returns the minimum Euclidean distance from p to any
// point of front, after normalising both axes by the provided scales.
// The paper uses "on or close to the Pareto frontier" as its criterion
// for the default threshold set; this quantifies "close".
func DistanceToFront(p Point, front []Point, xScale, yScale float64) float64 {
	if len(front) == 0 {
		return math.Inf(1)
	}
	if xScale == 0 {
		xScale = 1
	}
	if yScale == 0 {
		yScale = 1
	}
	best := math.Inf(1)
	for _, q := range front {
		dx := (p.X - q.X) / xScale
		dy := (p.Y - q.Y) / yScale
		if d := math.Hypot(dx, dy); d < best {
			best = d
		}
	}
	return best
}
