package metrics

import (
	"probqos/internal/sim"
	"probqos/internal/stats"
)

// CalibrationBin is one row of a reliability diagram: among jobs promised a
// success probability inside the bin, how often was the promise kept?
// An honest system's Observed is at least PromisedMean in every populated
// bin — the quantitative version of the paper's "a system that makes
// unqualified performance guarantees is lying".
type CalibrationBin struct {
	// Lo and Hi bound the promised-probability bin [Lo, Hi).
	Lo, Hi float64
	// Jobs is the number of jobs whose promise fell in the bin.
	Jobs int
	// PromisedMean is the mean promise inside the bin.
	PromisedMean float64
	// Observed is the fraction of those jobs that met their deadline.
	Observed float64
	// WorkShare is the fraction of total useful work in the bin.
	WorkShare float64
}

// Calibration computes a reliability diagram over the promised success
// probabilities with the given number of uniform bins (minimum 1). The
// final bin is closed, so a promise of exactly 1.0 lands in it; the rule is
// stats.BinIndex, which qosd's live promise ledger (Ledger) shares.
func Calibration(res *sim.Result, bins int) []CalibrationBin {
	if bins < 1 {
		bins = 1
	}
	out := make([]CalibrationBin, bins)
	for i := range out {
		out[i].Lo = float64(i) / float64(bins)
		out[i].Hi = float64(i+1) / float64(bins)
	}
	if res == nil || len(res.Jobs) == 0 {
		return out
	}
	var totalWork float64
	met := make([]int, bins)
	for _, j := range res.Jobs {
		totalWork += j.Exec.Seconds() * float64(j.Nodes)
	}
	for _, j := range res.Jobs {
		i := stats.BinIndex(j.Promised, bins)
		b := &out[i]
		b.Jobs++
		b.PromisedMean += j.Promised
		if j.MetDeadline {
			met[i]++
		}
		if totalWork > 0 {
			b.WorkShare += j.Exec.Seconds() * float64(j.Nodes) / totalWork
		}
	}
	for i := range out {
		if out[i].Jobs > 0 {
			out[i].PromisedMean /= float64(out[i].Jobs)
			out[i].Observed = float64(met[i]) / float64(out[i].Jobs)
		}
	}
	return out
}

// Overconfidence returns the largest shortfall of observed success below
// the mean promise across populated calibration bins (0 if the system
// over-delivered everywhere). It is the single-number honesty check.
func Overconfidence(bins []CalibrationBin) float64 {
	var worst float64
	for _, b := range bins {
		if b.Jobs == 0 {
			continue
		}
		if short := b.PromisedMean - b.Observed; short > worst {
			worst = short
		}
	}
	return worst
}
