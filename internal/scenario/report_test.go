package scenario

import (
	"path/filepath"
	"testing"

	"probqos/internal/metrics"
	"probqos/internal/sim"
	"probqos/internal/units"
)

// TestReportMatchesBruteForce checks the run report's job counts and
// metrics against a direct sum over the engine's jobs after every step of
// every zoo scenario. The goldens pin only the report after the final
// drain; qosd serves the same metrics mid-run.
func TestReportMatchesBruteForce(t *testing.T) {
	for _, file := range zooFiles(t) {
		t.Run(filepath.Base(file), func(t *testing.T) {
			r, err := NewRunner(decodeFile(t, file))
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; !r.Done(); step++ {
				if err := r.Step(); err != nil {
					t.Fatal(err)
				}
				rep := r.Report()
				jobs, m := bruteForceReport(r)
				if rep.Jobs != jobs {
					t.Errorf("step %d: jobs %+v, brute force %+v", step, rep.Jobs, jobs)
				}
				if rep.Metrics != m {
					t.Errorf("step %d: metrics %+v, brute force %+v", step, rep.Metrics, m)
				}
			}
		})
	}
}

// bruteForceReport sums the report's job counts and metrics by hand over
// the runner's engine, one job at a time in ascending ID order.
func bruteForceReport(r *Runner) (JobsReport, metrics.AsOfReport) {
	eng := r.m.Engine()
	jobs := JobsReport{Submitted: r.submitted, Rejected: r.rejected, InjectedFailures: r.injected}
	var (
		totalWork float64 // sum e_j * n_j, node-seconds
		qosNum    float64
		lostWork  units.Work
		promised  float64
		span      units.Time
	)
	for _, id := range eng.JobIDs() {
		js, ok := eng.Job(id)
		if !ok {
			continue
		}
		jobs.Admitted++
		w := js.Exec.Seconds() * float64(js.Nodes)
		totalWork += w
		promised += js.Promised
		lostWork += js.LostWork
		span = span.Max(js.Finish).Max(js.Deadline)
		switch js.State {
		case sim.JobCompleted:
			jobs.Completed++
			qosNum += w * js.Promised
		case sim.JobMissed:
			jobs.Missed++
		}
	}
	var m metrics.AsOfReport
	m.Span = units.Duration(span)
	m.TotalWorkNodeHours = totalWork / units.Hour.Seconds()
	m.LostWorkNodeHours = lostWork.NodeSeconds() / units.Hour.Seconds()
	if totalWork > 0 {
		m.QoS = qosNum / totalWork
	}
	if m.Span > 0 && r.scn.Fleet.Nodes > 0 {
		m.Utilization = totalWork / (m.Span.Seconds() * float64(r.scn.Fleet.Nodes))
	}
	if jobs.Admitted > 0 {
		m.MeanPromise = promised / float64(jobs.Admitted)
		m.DeadlineMissRate = float64(jobs.Missed) / float64(jobs.Admitted)
	}
	return jobs, m
}

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
