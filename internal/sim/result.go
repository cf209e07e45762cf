package sim

import (
	"probqos/internal/units"
)

// JobRecord is the per-job outcome the metrics layer consumes.
type JobRecord struct {
	ID    int
	Nodes int            // n_j
	Exec  units.Duration // e_j, checkpoint-free execution time

	Arrival    units.Time // v_j
	FirstStart units.Time // first time the job began executing
	LastStart  units.Time // s_j, start of the final (successful) attempt
	Finish     units.Time // f_j

	Deadline    units.Time // negotiated deadline d
	Promised    float64    // p_j, promised probability of success
	Quotes      int        // offers made during negotiation
	MetDeadline bool       // q_j

	Attempts            int // 1 + number of failures suffered
	FailuresSuffered    int
	CheckpointsDone     int
	CheckpointsSkipped  int
	DeadlineSkips       int // checkpoints skipped specifically to save the deadline
	StartSlips          int // reservation starts delayed by node outages
	LostWork            units.Work
	CheckpointOverheads units.Duration // total overhead time paid
}

// FailureRecord is one trace failure as it played out in the simulation.
type FailureRecord struct {
	Time     units.Time
	Node     int
	JobID    int        // job killed by the failure, 0 if the node was not running one
	LostWork units.Work // (t_x - c_jx) * n_jx
}

// Result is everything a simulation run produces.
type Result struct {
	// ClusterNodes is N.
	ClusterNodes int
	// Jobs holds one record per completed job, in workload-log order.
	Jobs []JobRecord
	// Failures holds one record per trace failure processed.
	Failures []FailureRecord
	// Start and End bound the run: min arrival and max finish over jobs.
	Start, End units.Time
	// BusyNodeSeconds integrates node occupancy over the run: every second
	// a node spends assigned to a job, including checkpoint overhead and
	// work later lost to failures. The gap between this and the sum of
	// e_j*n_j is the run's overhead-plus-rework bill.
	BusyNodeSeconds units.Work
	// EventsProcessed counts all simulator events.
	EventsProcessed int
	// StaleEventsDropped counts job events invalidated by failures.
	StaleEventsDropped int
}

// Span returns T = max_j f_j - min_j v_j, the denominator time span of the
// paper's utilization metric.
func (r *Result) Span() units.Duration {
	if len(r.Jobs) == 0 {
		return 0
	}
	return r.End.Sub(r.Start)
}

// TotalLostWork sums lost work over all failures.
func (r *Result) TotalLostWork() units.Work {
	var w units.Work
	for _, f := range r.Failures {
		w += f.LostWork
	}
	return w
}

// JobFailures counts failures that killed a running job.
func (r *Result) JobFailures() int {
	n := 0
	for _, f := range r.Failures {
		if f.JobID != 0 {
			n++
		}
	}
	return n
}

// OccupiedFraction returns BusyNodeSeconds over the run's total capacity
// T*N: the raw occupancy, as opposed to the paper's useful-work
// utilization.
func (r *Result) OccupiedFraction() float64 {
	span := r.Span()
	if span <= 0 || r.ClusterNodes == 0 {
		return 0
	}
	return r.BusyNodeSeconds.NodeSeconds() / (span.Seconds() * float64(r.ClusterNodes))
}
