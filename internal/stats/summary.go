package stats

import (
	"math"
	"sort"
)

// BinIndex maps a probability p onto one of bins uniform buckets:
// [i/bins, (i+1)/bins), with the final bin closed so p = 1.0 lands in it
// and out-of-range inputs clamp to the edge bins. It is the single
// bucketing rule behind every reliability diagram in the repository: the
// promise ledger's (internal/metrics), live in qosd and offline through
// metrics.LedgerOf.
func BinIndex(p float64, bins int) int {
	i := int(p * float64(bins))
	if i >= bins {
		i = bins - 1
	}
	if i < 0 {
		i = 0
	}
	return i
}

// Summary holds descriptive statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	Stddev float64
	Min    float64
	Max    float64
	Sum    float64
}

// Summarize computes descriptive statistics over xs. An empty sample yields
// a zero Summary.
func Summarize(xs []float64) Summary {
	var s Summary
	s.N = len(xs)
	if s.N == 0 {
		return s
	}
	s.Min = math.Inf(1)
	s.Max = math.Inf(-1)
	for _, x := range xs {
		s.Sum += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean = s.Sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Stddev = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// Percentile returns the p-th percentile (p in [0, 100]) of xs using linear
// interpolation between order statistics. It returns NaN for an empty
// sample.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
