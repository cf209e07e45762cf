package scenario

import (
	"testing"

	"probqos/internal/metrics"
)

// TestHonestPromisesDetail pins the honest_promises verdict and detail:
// the first bin with the largest shortfall is named, a shortfall of
// exactly the slack still passes, and the top bin, which holds every
// promise of exactly 1, is labelled closed.
func TestHonestPromisesDetail(t *testing.T) {
	bins := []metrics.ConformanceBin{
		{Lo: 0.2, Hi: 0.3, Settled: 3, PromisedMean: 0.25, Observed: 1},
		{Lo: 0.5, Hi: 0.6, Settled: 2, PromisedMean: 0.5, Observed: 0.25},
		{Lo: 0.7, Hi: 0.8, Settled: 0, PromisedMean: 0.75},
		{Lo: 0.9, Hi: 1, Settled: 4, PromisedMean: 1, Observed: 0.75},
	}
	topWorst := []metrics.ConformanceBin{
		{Lo: 0.5, Hi: 0.6, Settled: 2, PromisedMean: 0.5, Observed: 0.25},
		{Lo: 0.9, Hi: 1, Settled: 4, PromisedMean: 1, Observed: 0.5},
	}
	for _, tc := range []struct {
		bins   []metrics.ConformanceBin
		slack  float64
		ok     bool
		detail string
	}{
		{bins, 0.1, false, "bin [0.5,0.6) observed 0.250000 below promised 0.500000 by 0.250000 (slack 0.100000)"},
		{bins, 0.25, true, "every populated bin honest"},
		{topWorst, 0.1, false, "bin [0.9,1.0] observed 0.500000 below promised 1.000000 by 0.500000 (slack 0.100000)"},
	} {
		rep := &Report{Conformance: metrics.ConformanceStats{Bins: tc.bins}}
		got := evalAssertion(Assertion{Type: AssertHonestPromises, Slack: tc.slack}, rep)
		if got.OK != tc.ok || got.Detail != tc.detail {
			t.Errorf("slack %v: %+v, want ok=%v detail %q", tc.slack, got, tc.ok, tc.detail)
		}
	}
}
