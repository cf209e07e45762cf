package sim

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"probqos/internal/negotiate"
	"probqos/internal/units"
	"probqos/internal/workload"
)

// ErrStaleQuote is returned by Admit when the accepted quote's start lies
// in the engine's past: the client held the offer across a clock advance
// and must renegotiate.
var ErrStaleQuote = errors.New("sim: quote start is in the past")

// Now returns the engine's virtual clock.
func (s *Engine) Now() units.Time { return s.now }

// AdvanceTo processes every event due at or before t, then moves the clock
// to t. Advancing to the past is a no-op (the clock never goes backwards).
func (s *Engine) AdvanceTo(t units.Time) error {
	for {
		next, src := s.queue.peek()
		if src == fromNone || next.time > t {
			break
		}
		if err := s.step(); err != nil {
			return err
		}
	}
	if t > s.now {
		s.now = t
	}
	return nil
}

// PlannedDuration returns E_j: the wall time reserved for a job with
// checkpoint-free execution time exec, assuming every checkpoint runs.
func (s *Engine) PlannedDuration(exec units.Duration) units.Duration {
	return plannedDuration(exec, s.cfg.Checkpoint)
}

// Quotes previews up to max successive offers for a job of the given size
// and execution time submitted now, without reserving anything: the system
// side of the §3.5 dialog, quote k+1 trading a later deadline for a higher
// promised success probability.
func (s *Engine) Quotes(size int, exec units.Duration, max int) []negotiate.Quote {
	return s.negotiator.Quotes(s.now, size, s.PlannedDuration(exec), max)
}

// Admit turns an accepted quote into a live job: the reservation is
// committed and the job will start, checkpoint, fail, and restart exactly
// as a workload-log job would. offers records how many quotes the dialog
// took (the accepted quote's 1-based rank). Admission fails if the quote's
// node set has since been claimed by another reservation (the caller
// should renegotiate) or if the quote's start is already in the past.
func (s *Engine) Admit(job workload.Job, q negotiate.Quote, offers int) error {
	if err := job.Validate(s.cfg.Nodes); err != nil {
		return err
	}
	if _, dup := s.slotOf(job.ID); dup {
		return fmt.Errorf("sim: job %d already admitted", job.ID)
	}
	if len(q.Candidate.Nodes) != job.Nodes {
		return fmt.Errorf("sim: quote reserves %d nodes but job %d needs %d",
			len(q.Candidate.Nodes), job.ID, job.Nodes)
	}
	if q.Candidate.Start < s.now {
		return fmt.Errorf("%w: start %v, now %v", ErrStaleQuote, q.Candidate.Start, s.now)
	}
	duration := s.PlannedDuration(job.PlanExec())
	res, err := s.scheduler.Reserve(job.ID, q.Candidate, duration)
	if err != nil {
		return err
	}
	a := new(admittedJob)
	a.state.fill(job, &a.rec)
	a.state.res = res
	s.file(&a.state) // cannot refuse: the ID was checked above
	s.commit(len(s.slots)-1, q, offers)
	return nil
}

// admittedJob is an admitted job's state and record, allocated together.
type admittedJob struct {
	state jobState
	rec   JobRecord
}

// InjectFailure schedules a node failure at the given instant, no earlier
// than now. Injected failures behave exactly like trace failures — they
// kill the occupying job, cost the downtime, and trigger a restart from
// the last checkpoint — but the predictor cannot see them, so no quote
// priced them in.
func (s *Engine) InjectFailure(node int, at units.Time) error {
	if node < 0 || node >= s.cfg.Nodes {
		return fmt.Errorf("sim: node %d outside [0,%d)", node, s.cfg.Nodes)
	}
	if at < s.now {
		return fmt.Errorf("sim: cannot inject a failure at %v, clock is at %v", at, s.now)
	}
	s.queue.push(event{time: at, kind: KindFailure, node: node})
	return nil
}

// JobState is the lifecycle position of one admitted job.
type JobState int

// Lifecycle states. A job is Checkpointed while executing with completed
// checkpoint work behind it (a failure now would not lose everything).
// Missed is sticky from the instant the deadline passes unmet: a job that
// finishes late stays Missed, its promise already broken.
const (
	JobQueued JobState = iota + 1
	JobRunning
	JobCheckpointed
	JobCompleted
	JobMissed
)

var jobStateNames = map[JobState]string{
	JobQueued:       "queued",
	JobRunning:      "running",
	JobCheckpointed: "checkpointed",
	JobCompleted:    "completed",
	JobMissed:       "missed",
}

func (st JobState) String() string {
	if n, ok := jobStateNames[st]; ok {
		return n
	}
	return "unknown"
}

// MarshalJSON renders the state as its lowercase name.
func (st JobState) MarshalJSON() ([]byte, error) {
	return []byte(strconv.Quote(st.String())), nil
}

// UnmarshalJSON parses the lowercase state name, for API clients decoding
// a JobStatus.
func (st *JobState) UnmarshalJSON(data []byte) error {
	name, err := strconv.Unquote(string(data))
	if err != nil {
		return fmt.Errorf("sim: job state %s is not a JSON string", data)
	}
	for s, n := range jobStateNames {
		if n == name {
			*st = s
			return nil
		}
	}
	return fmt.Errorf("sim: unknown job state %q", name)
}

// Terminal reports whether the state is an endpoint of the promise: the
// job completed on time, or its deadline passed.
func (st JobState) Terminal() bool { return st == JobCompleted || st == JobMissed }

// JobStatus is the externally visible state of one job.
type JobStatus struct {
	ID       int            `json:"id"`
	State    JobState       `json:"state"`
	Nodes    int            `json:"nodes"`
	Exec     units.Duration `json:"exec_seconds"`
	Arrival  units.Time     `json:"arrival"`
	Deadline units.Time     `json:"deadline"`
	Promised float64        `json:"promised"`

	Attempts           int        `json:"attempts"`
	FailuresSuffered   int        `json:"failures_suffered"`
	CheckpointsDone    int        `json:"checkpoints_done"`
	CheckpointsSkipped int        `json:"checkpoints_skipped"`
	StartSlips         int        `json:"start_slips"`
	LostWork           units.Work `json:"lost_work"`
	Finish             units.Time `json:"finish,omitempty"`
	MetDeadline        bool       `json:"met_deadline"`
}

// Job reports the status of one admitted job.
func (s *Engine) Job(id int) (JobStatus, bool) {
	slot, ok := s.slotOf(id)
	if !ok {
		return JobStatus{}, false
	}
	js := s.slots[slot]
	r := js.rec
	return JobStatus{
		ID:       id,
		State:    s.stateOf(js),
		Nodes:    r.Nodes,
		Exec:     r.Exec,
		Arrival:  r.Arrival,
		Deadline: r.Deadline,
		Promised: r.Promised,

		Attempts:           r.Attempts,
		FailuresSuffered:   r.FailuresSuffered,
		CheckpointsDone:    r.CheckpointsDone,
		CheckpointsSkipped: r.CheckpointsSkipped,
		StartSlips:         r.StartSlips,
		LostWork:           r.LostWork,
		Finish:             r.Finish,
		MetDeadline:        r.MetDeadline,
	}, true
}

// stateOf places a job in its lifecycle at the current clock.
func (s *Engine) stateOf(js *jobState) JobState {
	switch {
	case js.completed && js.rec.MetDeadline:
		return JobCompleted
	case js.completed || s.now.After(js.rec.Deadline):
		return JobMissed
	case js.running && (js.hasCkpt || js.doneWork > 0):
		return JobCheckpointed
	case js.running:
		return JobRunning
	default:
		return JobQueued
	}
}

// JobIDs lists every admitted job in ascending ID order.
func (s *Engine) JobIDs() []int {
	ids := make([]int, len(s.slots))
	for i, js := range s.slots {
		ids[i] = js.rec.ID
	}
	if s.byID != nil {
		slices.Sort(ids)
	}
	return ids
}

// Stats is a cluster-level snapshot for dashboards and state queries.
type Stats struct {
	Now             units.Time `json:"now"`
	Nodes           int        `json:"nodes"`
	BusyNodes       int        `json:"busy_nodes"`
	Jobs            int        `json:"jobs"`
	Queued          int        `json:"queued"`
	Running         int        `json:"running"` // includes checkpointed
	Completed       int        `json:"completed"`
	Missed          int        `json:"missed"`
	LostWork        units.Work `json:"lost_work"`
	EventsProcessed int        `json:"events_processed"`
	PendingEvents   int        `json:"pending_events"`
	MeanPromise     float64    `json:"mean_promise"`
}

// Stats snapshots the engine. It walks the job table, so it is meant for a
// metrics scrape or a state query (qosd's /v1/state), not a per-request
// path or the event hot path (the Probe serves that).
func (s *Engine) Stats() Stats {
	st := Stats{
		Now:             s.now,
		Nodes:           s.cfg.Nodes,
		BusyNodes:       s.busyNodes,
		Jobs:            len(s.slots),
		LostWork:        s.lostWork,
		EventsProcessed: s.res.EventsProcessed,
		PendingEvents:   s.queue.len(),
	}
	if s.promisedJobs > 0 {
		st.MeanPromise = s.promiseSum / float64(s.promisedJobs)
	}
	for _, js := range s.slots {
		switch s.stateOf(js) {
		case JobQueued:
			st.Queued++
		case JobRunning, JobCheckpointed:
			st.Running++
		case JobCompleted:
			st.Completed++
		case JobMissed:
			st.Missed++
		}
	}
	return st
}
