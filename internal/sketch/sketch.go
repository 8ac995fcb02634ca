// Package sketch implements a deterministic, mergeable quantile
// sketch over log-spaced buckets (the DDSketch family: relative-error
// quantiles from geometric bucket boundaries).
//
// The design goal is *merge-order invariance by construction*: the
// fleet engine folds per-member samples into per-shard sketches and
// merges the shards, and the merged result must be byte-identical for
// any shard count. Floating-point accumulation is order-dependent
// (a+b+c != a+(b+c) in general), so the sketch keeps no running float
// sum — its mergeable state is integers only (per-bucket uint64
// counts plus a zero-bucket count) and the exactly order-invariant
// min/max. Derived statistics (quantiles, approximate mean/sum) are
// computed at read time from the merged counts, so they depend only
// on the multiset of samples, never on the fold or merge order.
//
// The bucket layout is fixed at compile time: index(v) = ceil(log_γ v)
// with γ = (1+α)/(1-α) for α = 1% relative error, over the value range
// [1e-9, 1e12). Values below the range (including zero and negatives)
// land in the zero bucket; values at or above the top are clamped into
// the last bucket. A fixed layout means every sketch is mergeable with
// every other and Add is a bounds-clamped array increment: no
// allocation, no map, no collapse logic on the hot path.
package sketch

import "math"

// Alpha is the target relative error of reported quantiles: a value
// reported for quantile q is within ±1% of an exact sample value.
const Alpha = 0.01

// Gamma is the bucket growth factor (1+Alpha)/(1-Alpha).
const Gamma = (1 + Alpha) / (1 - Alpha)

// MinValue is the smallest magnitude resolved by the log buckets;
// samples below it (including 0 and negatives) count in the zero
// bucket and report as 0.
const MinValue = 1e-9

// MaxValue is the top of the resolved range; larger samples clamp
// into the final bucket.
const MaxValue = 1e12

// invLogGamma is 1/ln(γ), precomputed so Add performs one Log, one
// multiply and one Ceil.
var invLogGamma = 1 / math.Log(Gamma)

// minIndex/maxIndex are ceil(log_γ MinValue) and ceil(log_γ MaxValue),
// fixed by the constants above. They are computed once at init; the
// values are ~[-1036, +1382] for the constants above (~2.4k buckets,
// ~19 KiB of counts per sketch).
var (
	minIndex = int(math.Ceil(math.Log(MinValue) * invLogGamma))
	maxIndex = int(math.Ceil(math.Log(MaxValue) * invLogGamma))
)

// Sketch is a fixed-layout log-bucket quantile sketch. The zero value
// is not usable; call New. All methods are single-goroutine; the fleet
// engine keeps one sketch per shard and merges after the barrier.
type Sketch struct {
	// counts[i] tallies samples in bucket minIndex+i, i.e. values v
	// with γ^(minIndex+i-1) < v <= γ^(minIndex+i).
	counts []uint64
	// zero tallies samples below MinValue (incl. zero and negatives).
	zero uint64
	// n is the total sample count including the zero bucket.
	n uint64
	// min/max are exact extremes; min/max are order-invariant under
	// merge because min(min(a,b),c) = min(a,min(b,c)) exactly.
	min, max float64
}

// New returns an empty sketch with the package's fixed layout.
func New() *Sketch {
	return &Sketch{
		counts: make([]uint64, maxIndex-minIndex+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// Reset empties the sketch in place, keeping its bucket array.
func (s *Sketch) Reset() {
	for i := range s.counts {
		s.counts[i] = 0
	}
	s.zero = 0
	s.n = 0
	s.min = math.Inf(1)
	s.max = math.Inf(-1)
}

// Add folds one sample. It performs no allocation and no branching
// beyond range clamps, so it is safe inside the fleet engine's
// zero-alloc steady-state tick. NaN samples are ignored (a NaN would
// poison min/max and cannot be ranked).
func (s *Sketch) Add(v float64) { s.AddSlot(v, Slot(v)) }

// Slot returns the bucket Add files v under: 0 for the zero bucket,
// k ≥ 1 for log bucket minIndex+k-1. It is a pure function of v's bits,
// so a caller that folds the same value again and again may keep the
// slot and call AddSlot, skipping the logarithm.
func Slot(v float64) int {
	if !(v >= MinValue) {
		return 0
	}
	idx := int(math.Ceil(math.Log(v) * invLogGamma))
	if idx < minIndex {
		idx = minIndex
	} else if idx > maxIndex {
		idx = maxIndex
	}
	return idx - minIndex + 1
}

// AddSlot is Add(v) for a v whose Slot is slot.
func (s *Sketch) AddSlot(v float64, slot int) {
	if math.IsNaN(v) {
		return
	}
	s.n++
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	if slot == 0 {
		s.zero++
		return
	}
	s.counts[slot-1]++
}

// Merge folds o into s. Merging is commutative and associative
// *exactly* — it is integer addition per bucket plus exact min/max —
// so any merge tree over the same sketches yields identical state.
// A nil or empty o is a no-op.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil || o.n == 0 {
		return
	}
	for i, c := range o.counts {
		s.counts[i] += c
	}
	s.zero += o.zero
	s.n += o.n
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
}

// Count returns the number of samples folded in (including the zero
// bucket).
func (s *Sketch) Count() uint64 { return s.n }

// Min returns the exact minimum sample, or +Inf when empty.
func (s *Sketch) Min() float64 { return s.min }

// Max returns the exact maximum sample, or -Inf when empty.
func (s *Sketch) Max() float64 { return s.max }

// rep returns the representative value of bucket index i: the
// geometric midpoint 2γ^i/(γ+1) of the bucket's (γ^(i-1), γ^i]
// range, which bounds relative error by Alpha.
func rep(i int) float64 {
	return math.Pow(Gamma, float64(i)) * 2 / (Gamma + 1)
}

// Quantile returns an estimate of the q-quantile (q in [0,1]) with
// relative error at most Alpha, and false when the sketch is empty.
// The zero bucket reports 0. Estimates are clamped to the exact
// [Min, Max] so q=0 and q=1 report the true extremes.
func (s *Sketch) Quantile(q float64) (float64, bool) {
	if s.n == 0 {
		return 0, false
	}
	if q <= 0 {
		return s.min, true
	}
	if q >= 1 {
		return s.max, true
	}
	// rank is the 0-based index of the order statistic to report.
	rank := uint64(q * float64(s.n-1))
	if rank < s.zero {
		return s.clamp(0), true
	}
	cum := s.zero
	for i, c := range s.counts {
		cum += c
		if rank < cum {
			return s.clamp(rep(minIndex + i)), true
		}
	}
	// Unreachable when counts are consistent; defend anyway.
	return s.max, true
}

// clamp pins an estimate into the exact observed range.
func (s *Sketch) clamp(v float64) float64 {
	if v < s.min {
		return s.min
	}
	if v > s.max {
		return s.max
	}
	return v
}

// Sum returns the approximate sum of all samples, Σ countᵢ·repᵢ over
// the merged buckets (zero-bucket samples contribute 0). Because it
// is derived from the merged integer state in a fixed bucket order,
// it is identical for any merge order — unlike a running float sum.
func (s *Sketch) Sum() float64 {
	var sum float64
	for i, c := range s.counts {
		if c != 0 {
			sum += float64(c) * rep(minIndex+i)
		}
	}
	return sum
}

// Mean returns Sum()/Count(), or 0 when empty.
func (s *Sketch) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.Sum() / float64(s.n)
}

// Buckets calls fn for every non-empty log bucket in ascending value
// order with the bucket's representative value and count, preceded by
// the zero bucket (value 0) when it is non-empty. Exposition layers
// (obs histograms, JSON status pages) fold the sketch through this.
func (s *Sketch) Buckets(fn func(value float64, count uint64)) {
	if s.zero != 0 {
		fn(0, s.zero)
	}
	for i, c := range s.counts {
		if c != 0 {
			fn(rep(minIndex+i), c)
		}
	}
}

// Summary is the fixed five-number reduction used in fleet reports.
// All fields derive deterministically from merged integer state.
type Summary struct {
	Count uint64
	Min   float64
	P50   float64
	P90   float64
	P99   float64
	Max   float64
	Mean  float64
}

// Summarize reduces the sketch to its report summary. An empty sketch
// reports all zeros (not ±Inf), so summaries are JSON-safe.
func (s *Sketch) Summarize() Summary {
	if s.n == 0 {
		return Summary{}
	}
	p50, _ := s.Quantile(0.50)
	p90, _ := s.Quantile(0.90)
	p99, _ := s.Quantile(0.99)
	return Summary{
		Count: s.n,
		Min:   s.min,
		P50:   p50,
		P90:   p90,
		P99:   p99,
		Max:   s.max,
		Mean:  s.Mean(),
	}
}
