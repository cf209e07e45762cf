// Package metrics computes the paper's evaluation metrics (§3.5) from a
// simulation result: QoS (Equation 2), capacity utilized, and total lost
// work, plus the usual scheduling diagnostics.
package metrics

import (
	"math"

	"probqos/internal/sim"
	"probqos/internal/units"
)

// Report holds every metric computed for one simulation run.
type Report struct {
	// QoS is Equation 2: sum(e_j n_j q_j p_j) / sum(e_j n_j). It rewards
	// the system for promising only what it delivers and delivering all it
	// can; jobs that miss their deadline contribute nothing.
	QoS float64
	// Utilization is ω_util: sum(e_j n_j) / (T * N), with T the span from
	// first arrival to last finish. Checkpoint overheads count as
	// unnecessary work and are excluded, per §3.5.
	Utilization float64
	// LostWork is ω_lost: sum over failures of (t_x - c_jx) * n_jx.
	LostWork units.Work
	// JobFailures counts failures that killed a running job.
	JobFailures int
	// DeadlineMissRate is the fraction of jobs with q_j = 0.
	DeadlineMissRate float64
	// WorkMissRate is the work-weighted fraction of jobs with q_j = 0.
	WorkMissRate float64
	// MeanPromise is the average promised success probability p_j.
	MeanPromise float64
	// ObservedSuccess is the fraction of jobs that met their deadline; when
	// the system is honest it should not fall below MeanPromise.
	ObservedSuccess float64
	// MeanWaitSeconds is the mean of (last start - arrival), the paper's
	// "last start time" convention.
	MeanWaitSeconds float64
	// MeanBoundedSlowdown is the mean bounded slowdown with the usual 10 s
	// threshold.
	MeanBoundedSlowdown float64
	// CheckpointsDone and CheckpointsSkipped count checkpoint decisions.
	CheckpointsDone    int
	CheckpointsSkipped int
	// CheckpointOverhead is the total wall time spent in checkpoints.
	CheckpointOverhead units.Duration
	// OccupiedFraction is raw node occupancy over T*N: useful work plus
	// checkpoint overhead plus work later lost to failures.
	OccupiedFraction float64
	// Span is T.
	Span units.Duration
}

// Compute derives the report from a simulation result.
func Compute(res *sim.Result) Report {
	var r Report
	if res == nil || len(res.Jobs) == 0 {
		return r
	}

	var (
		f          fold
		promiseSum float64
		waitSum    float64
		slowSum    float64
	)
	const slowdownFloor = 10.0
	for i := range res.Jobs {
		j := &res.Jobs[i]
		f.record(j)
		promiseSum += j.Promised
		wait := j.LastStart.Sub(j.Arrival).Seconds()
		waitSum += wait
		run := j.Finish.Sub(j.LastStart).Seconds()
		slow := (wait + run) / math.Max(j.Exec.Seconds(), slowdownFloor)
		slowSum += math.Max(slow, 1)

		r.CheckpointsDone += j.CheckpointsDone
		r.CheckpointsSkipped += j.CheckpointsSkipped
		r.CheckpointOverhead += j.CheckpointOverheads
	}

	n := float64(len(res.Jobs))
	r.Span = res.Span()
	r.QoS = f.qos()
	if f.work > 0 {
		r.WorkMissRate = f.missedWork / f.work
	}
	r.Utilization = f.utilization(r.Span, res.ClusterNodes)
	r.LostWork = res.TotalLostWork()
	r.JobFailures = res.JobFailures()
	r.OccupiedFraction = res.OccupiedFraction()
	r.DeadlineMissRate = float64(f.missed) / n
	r.ObservedSuccess = 1 - r.DeadlineMissRate
	r.MeanPromise = promiseSum / n
	r.MeanWaitSeconds = waitSum / n
	r.MeanBoundedSlowdown = slowSum / n
	return r
}

// AsOfReport is Equation 2 and its companions over an engine's admitted
// jobs as of its clock: the scenario report's metrics, and qosd's
// /qos/report. A job not yet settled counts in the work denominator and
// adds to the numerator only once it completes on time.
type AsOfReport struct {
	// QoS is the paper's aggregate: sum(e*n*q*p) / sum(e*n) with q = 1 for
	// jobs that met their deadline.
	QoS float64 `json:"qos"`
	// Utilization is useful work over Span * Nodes.
	Utilization float64 `json:"utilization"`
	// Span runs from 0 to the latest finish or deadline over every
	// admitted job, finished or not.
	Span               units.Duration `json:"span_s"`
	TotalWorkNodeHours float64        `json:"total_work_node_hours"`
	LostWorkNodeHours  float64        `json:"lost_work_node_hours"`
	MeanPromise        float64        `json:"mean_promise"`
	DeadlineMissRate   float64        `json:"deadline_miss_rate"`
}

// AsOf reports the paper's metrics over eng's admitted jobs at eng's
// clock. The job counts, mean promise and lost work are the engine's
// Stats; the work sums walk the jobs in ascending ID order.
func AsOf(eng *sim.Engine) AsOfReport {
	st := eng.Stats()
	var (
		f    fold
		span units.Time
	)
	for _, id := range eng.JobIDs() {
		js, _ := eng.Job(id)
		f.add(js.Nodes, js.Exec, js.Promised, js.State == sim.JobCompleted)
		span = span.Max(js.Finish).Max(js.Deadline)
	}
	r := AsOfReport{
		QoS:                f.qos(),
		Span:               units.Duration(span),
		TotalWorkNodeHours: f.work / units.Hour.Seconds(),
		LostWorkNodeHours:  st.LostWork.NodeSeconds() / units.Hour.Seconds(),
		MeanPromise:        st.MeanPromise,
	}
	r.Utilization = f.utilization(r.Span, st.Nodes)
	if st.Jobs > 0 {
		r.DeadlineMissRate = float64(st.Missed) / float64(st.Jobs)
	}
	return r
}

// WorkShares splits a run's useful work over n buckets: shares[k] sums,
// in log order, e*n / sum(e*n) over the jobs bucket maps to k.
func WorkShares(res *sim.Result, n int, bucket func(*sim.JobRecord) int) []float64 {
	shares := make([]float64, n)
	if res == nil {
		return shares
	}
	var all fold
	for i := range res.Jobs {
		all.record(&res.Jobs[i])
	}
	if all.work > 0 {
		for i := range res.Jobs {
			j := &res.Jobs[i]
			shares[bucket(j)] += work(j.Nodes, j.Exec) / all.work
		}
	}
	return shares
}

// fold sums Equation 2 over jobs in the order they are added: the useful
// work sum(e*n), its kept part sum(e*n*p), and the work and count of the
// jobs not kept. Every report of the paper's metrics sums through it.
type fold struct {
	work, kept, missedWork float64
	missed                 int
}

// work is a job's useful work e*n, in node-seconds.
func work(nodes int, exec units.Duration) float64 { return exec.Seconds() * float64(nodes) }

// add folds in one job.
func (f *fold) add(nodes int, exec units.Duration, promised float64, kept bool) {
	w := work(nodes, exec)
	f.work += w
	if kept {
		f.kept += w * promised
	} else {
		f.missed++
		f.missedWork += w
	}
}

// record folds in one finished job; it is kept when it met its deadline.
func (f *fold) record(j *sim.JobRecord) {
	f.add(j.Nodes, j.Exec, j.Promised, j.MetDeadline)
}

// qos is Equation 2 over the folded jobs, 0 without work.
func (f *fold) qos() float64 {
	if f.work > 0 {
		return f.kept / f.work
	}
	return 0
}

// utilization is the folded work over span*nodes, 0 when either is 0.
func (f *fold) utilization(span units.Duration, nodes int) float64 {
	if span > 0 && nodes > 0 {
		return f.work / (span.Seconds() * float64(nodes))
	}
	return 0
}
