package core

// Slice-form references for Algorithms 1 and 2. The runtime evaluates
// both incrementally over its ring buffers; these direct forms are the
// oracles the tests compare it against.

// PredictTrend is Algorithm 1 (see predictTrendRing) over a history
// slice in FIFO order, oldest first: the oracle for the ring form the
// runtime evaluates in place.
func PredictTrend(hist []float64, derivLen int, incGBs, decGBs float64) Trend {
	n := len(hist) - 1
	if n < 1 {
		return TrendFlat
	}
	if derivLen > n {
		derivLen = n
	}
	for span := 1; span <= derivLen; span++ {
		d := (hist[n] - hist[n-span]) / float64(span)
		switch {
		case d > incGBs:
			return TrendUp
		case d < -decGBs:
			return TrendDown
		}
	}
	return TrendFlat
}

// HighFrequency is Algorithm 2: the fraction of recent cycles that
// produced a tuning decision, compared against the threshold. The
// runtime keeps the non-zero count incrementally as entries enter and
// leave the tune log (pushTune); this scan is its oracle.
func HighFrequency(tuneLog []int, threshold float64) bool {
	if len(tuneLog) == 0 {
		return false
	}
	s := 0
	for _, v := range tuneLog {
		if v != 0 {
			s++
		}
	}
	return float64(s)/float64(len(tuneLog)) >= threshold
}
