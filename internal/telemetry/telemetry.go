// Package telemetry records time series during simulated runs (power,
// frequency, throughput traces for Figures 1/2/5/6) and extracts burst
// patterns from throughput traces for the Table 1 Jaccard analysis:
// bursts are intervals where throughput exceeds a threshold fraction of
// the baseline run's peak, resampled onto a fixed grid of bins.
package telemetry

import (
	"fmt"
	"time"
)

// Series is a time series of (seconds, value) points in append order.
type Series struct {
	Times  []float64
	Values []float64
}

// Append adds a point; time must not decrease.
func (s *Series) Append(tSec, v float64) {
	if n := len(s.Times); n > 0 && tSec < s.Times[n-1] {
		panic(fmt.Sprintf("telemetry: time went backwards (%v after %v)", tSec, s.Times[n-1]))
	}
	s.Times = append(s.Times, tSec)
	s.Values = append(s.Values, v)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Times) }

// Duration returns the span from first to last sample, in seconds.
func (s *Series) Duration() float64 {
	if len(s.Times) < 2 {
		return 0
	}
	return s.Times[len(s.Times)-1] - s.Times[0]
}

// Mean returns the time-weighted mean value (each sample holds until
// the next), or 0 for fewer than two points.
func (s *Series) Mean() float64 {
	if len(s.Times) < 2 {
		if len(s.Values) == 1 {
			return s.Values[0]
		}
		return 0
	}
	var acc float64
	for i := 0; i+1 < len(s.Times); i++ {
		acc += s.Values[i] * (s.Times[i+1] - s.Times[i])
	}
	return acc / s.Duration()
}

// Max returns the maximum value; it panics on an empty series.
func (s *Series) Max() float64 {
	if len(s.Values) == 0 {
		panic("telemetry: Max of empty series")
	}
	m := s.Values[0]
	for _, v := range s.Values[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Integrate returns the step-held integral ∫v dt in value·seconds.
func (s *Series) Integrate() float64 {
	var acc float64
	for i := 0; i+1 < len(s.Times); i++ {
		acc += s.Values[i] * (s.Times[i+1] - s.Times[i])
	}
	return acc
}

// Resample averages the series into bins equal-width bins spanning the
// full duration. Empty bins inherit the previous bin's value (sample
// and hold). It panics on bins < 1 or a series with < 2 points.
func (s *Series) Resample(bins int) []float64 {
	if bins < 1 {
		panic("telemetry: Resample with bins < 1")
	}
	if len(s.Times) < 2 {
		panic("telemetry: Resample of degenerate series")
	}
	start, dur := s.Times[0], s.Duration()
	out := make([]float64, bins)
	counts := make([]int, bins)
	for i, tm := range s.Times {
		b := int((tm - start) / dur * float64(bins))
		if b >= bins {
			b = bins - 1
		}
		out[b] += s.Values[i]
		counts[b]++
	}
	last := s.Values[0]
	for b := range out {
		if counts[b] > 0 {
			out[b] /= float64(counts[b])
			last = out[b]
		} else {
			out[b] = last
		}
	}
	return out
}

// Bursts resamples the series and marks bins whose value exceeds
// threshold.
func (s *Series) Bursts(bins int, threshold float64) []bool {
	vals := s.Resample(bins)
	out := make([]bool, bins)
	for i, v := range vals {
		out[i] = v > threshold
	}
	return out
}

// Recorder samples named probes on a fixed interval; it implements
// sim.Component.
type Recorder struct {
	interval time.Duration
	next     time.Duration
	names    []string
	probes   []func() float64
	series   map[string]*Series
	reserve  int
}

// NewRecorder builds a recorder sampling every interval.
func NewRecorder(interval time.Duration) *Recorder {
	if interval <= 0 {
		panic("telemetry: non-positive recorder interval")
	}
	return &Recorder{interval: interval, series: make(map[string]*Series)}
}

// Track registers a probe under name. Must not be called after stepping
// starts for deterministic column order.
func (r *Recorder) Track(name string, probe func() float64) {
	if probe == nil {
		panic("telemetry: nil probe")
	}
	if _, dup := r.series[name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate probe %q", name))
	}
	r.names = append(r.names, name)
	r.probes = append(r.probes, probe)
	s := &Series{}
	if r.reserve > 0 {
		s.reserve(r.reserve)
	}
	r.series[name] = s
}

// Step implements sim.Component. The next sample time advances on the
// fixed grid (multiples of the interval) rather than re-anchoring on
// the tick that happened to cross it; re-anchoring stretched the
// cadence whenever the engine step did not divide the interval.
func (r *Recorder) Step(now, dt time.Duration) {
	if !r.Due(now) {
		return
	}
	sec := now.Seconds()
	for i, name := range r.names {
		r.series[name].Append(sec, r.probes[i]())
	}
	for r.next <= now {
		r.next += r.interval
	}
}

// Due reports whether Step at now takes a sample.
func (r *Recorder) Due(now time.Duration) bool { return now >= r.next }

// Reserve grows every tracked series' capacity to hold at least samples
// points, so a run of known horizon records without reallocating mid
// trace. Applies to probes already registered and to ones added later.
func (r *Recorder) Reserve(samples int) {
	if samples <= 0 {
		return
	}
	r.reserve = samples
	for _, s := range r.series {
		s.reserve(samples)
	}
}

// reserve grows the series' backing arrays to at least n points.
func (s *Series) reserve(n int) {
	if cap(s.Times) < n {
		tt := make([]float64, len(s.Times), n)
		copy(tt, s.Times)
		s.Times = tt
	}
	if cap(s.Values) < n {
		vv := make([]float64, len(s.Values), n)
		copy(vv, s.Values)
		s.Values = vv
	}
}

// Series returns the series recorded under name (nil if unknown).
func (r *Recorder) Series(name string) *Series { return r.series[name] }

// Names returns the tracked probe names in registration order.
func (r *Recorder) Names() []string { return append([]string(nil), r.names...) }

// BurstJaccard computes the Table 1 similarity between two throughput
// traces: both are resampled to bins bins over their own durations,
// bursts are bins above thresholdFrac of the *baseline's* peak, and the
// Jaccard index of the two burst sets is returned.
func BurstJaccard(baseline, other *Series, bins int, thresholdFrac float64) float64 {
	thr := baseline.Max() * thresholdFrac
	a := baseline.Bursts(bins, thr)
	b := other.Bursts(bins, thr)
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
