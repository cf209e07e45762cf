package main

import (
	"math"
	"sort"
)

// minTail is the number of samples a reported percentile must leave above
// it: a percentile backed by fewer outliers than this does not repeat.
const minTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, which must be sorted ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest-rank position of the p-th percentile among
// n samples.
func rank(n int, p float64) int {
	// The epsilon keeps float error from bumping an exact rank (99.9% of
	// 10 000 is 9990, not 9991).
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// tailBeyond counts the samples strictly above the nearest-rank p-th
// percentile position among n samples.
func tailBeyond(n int, p float64) int { return n - rank(n, p) }

// highestPercentile returns the highest of the candidate percentiles that
// leaves at least minTail samples beyond it among n samples, and false when
// none does.
func highestPercentile(n int, candidates []float64) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range candidates {
		if tailBeyond(n, p) >= minTail && (!ok || p > best) {
			best, ok = p, true
		}
	}
	return best, ok
}

// reportedPercentiles are the percentiles the summary line considers.
var reportedPercentiles = []float64{50, 90, 99, 99.9}

// samples accumulates one timing series.
type samples []float64

func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// median of a non-empty series.
func (s samples) median() float64 { return percentile(s.sorted(), 50) }

// mean of a series, zero when empty.
func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range s {
		t += x
	}
	return t / float64(len(s))
}
