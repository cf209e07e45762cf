package sim

import (
	"strconv"
	"time"

	"probqos/internal/units"
)

// State is the cluster-level snapshot the simulator hands to a Probe after
// every processed event. All fields are cumulative or instantaneous values
// the simulator maintains anyway; building a State is a handful of copies.
type State struct {
	// Time is the simulation clock at the snapshot.
	Time units.Time
	// EventsProcessed counts all events dispatched so far.
	EventsProcessed int
	// QueueDepth is the number of jobs that have negotiated a deadline but
	// are not executing: waiting for their reserved start, slipped, or
	// requeued after a failure.
	QueueDepth int
	// RunningJobs is the number of jobs currently executing.
	RunningJobs int
	// BusyNodes is the number of nodes occupied by running jobs.
	BusyNodes int
	// LostWork is the cumulative work destroyed by failures so far.
	LostWork units.Work
	// PromiseSum and PromisedJobs accumulate promised success probabilities
	// over arrivals so far; their ratio is the running mean promise.
	PromiseSum   float64
	PromisedJobs int
}

// MeanPromise returns the mean promised success probability over jobs quoted
// so far, or zero before the first arrival.
func (st State) MeanPromise() float64 {
	if st.PromisedJobs == 0 {
		return 0
	}
	return st.PromiseSum / float64(st.PromisedJobs)
}

// DecisionKind enumerates the engine events the simulator reports to a
// Probe: control-plane decisions and the job and node lifecycle facts the
// journal records. The numeric values are stable; new kinds are appended.
type DecisionKind int

const (
	// DecisionQuote reports the offers extended during one negotiation
	// (Decision.N is the offer count).
	DecisionQuote DecisionKind = iota + 1
	// DecisionReserve is a reservation placed at arrival, with the
	// negotiated deadline and promise.
	DecisionReserve
	// DecisionBackfill is a post-failure requeue placement: the restarted
	// job takes the earliest hole the profile offers.
	DecisionBackfill
	// DecisionStartSlip is a reserved start delayed by a node outage or a
	// slipped predecessor.
	DecisionStartSlip
	// DecisionCheckpointGrant and DecisionCheckpointSkip are the two
	// outcomes of a checkpoint request.
	DecisionCheckpointGrant
	DecisionCheckpointSkip
	// DecisionCheckpointDeadlineSkip is a grant overridden because skipping
	// might save the job's deadline (also reported as a skip).
	DecisionCheckpointDeadlineSkip
	// DecisionFailureKill is a failure that destroyed a running job;
	// DecisionFailureIdle hit an unoccupied node.
	DecisionFailureKill
	DecisionFailureIdle
	// DecisionStart is a job attempt starting on its reserved nodes.
	DecisionStart
	// DecisionCheckpointDone is a performed checkpoint completing.
	DecisionCheckpointDone
	// DecisionFinish is a job completing.
	DecisionFinish
	// DecisionRecovery is a failed node coming back up.
	DecisionRecovery
)

var decisionNames = map[DecisionKind]string{
	DecisionQuote:                  "quote",
	DecisionReserve:                "reserve",
	DecisionBackfill:               "backfill",
	DecisionStartSlip:              "start-slip",
	DecisionCheckpointGrant:        "checkpoint-grant",
	DecisionCheckpointSkip:         "checkpoint-skip",
	DecisionCheckpointDeadlineSkip: "checkpoint-deadline-skip",
	DecisionFailureKill:            "failure-kill",
	DecisionFailureIdle:            "failure-idle",
	DecisionStart:                  "start",
	DecisionCheckpointDone:         "checkpoint-done",
	DecisionFinish:                 "finish",
	DecisionRecovery:               "recovery",
}

func (k DecisionKind) String() string {
	if n, ok := decisionNames[k]; ok {
		return n
	}
	return "unknown"
}

// Decision is one engine event as reported to a Probe: a control-plane
// decision or a lifecycle fact. The fields after N are set only by the
// kinds named in their comments; Note renders them as a journal line.
type Decision struct {
	Kind  DecisionKind
	Time  units.Time
	JobID int
	// N is the decision's multiplicity: the offer count for DecisionQuote,
	// 1 for everything else.
	N int
	// Node is the failed or recovered node (DecisionFailureKill,
	// DecisionFailureIdle, DecisionRecovery).
	Node int
	// Width is the job's node count (DecisionStart, DecisionFinish,
	// DecisionFailureKill).
	Width int
	// Deadline and Promise are the negotiated deadline and success
	// probability (DecisionReserve).
	Deadline units.Time
	Promise  float64
	// SlipTo is the instant the delayed start is retried
	// (DecisionStartSlip).
	SlipTo units.Time
	// AtRisk is the number of intervals a failure would roll back, d in
	// Equation 1 (DecisionCheckpointGrant, DecisionCheckpointSkip,
	// DecisionCheckpointDeadlineSkip).
	AtRisk int
	// Met reports whether the job finished by its deadline
	// (DecisionFinish).
	Met bool
	// Lost is the work the failure destroyed (DecisionFailureKill).
	Lost units.Work
}

// Note is one line of the simulation journal, as Decision.Note renders it.
type Note struct {
	Time  units.Time `json:"time"`
	Kind  string     `json:"kind"`
	JobID int        `json:"job,omitempty"`
	Node  int        `json:"node,omitempty"`
	// Width is the node count of the job the event concerns, for start,
	// finish, and job-killing failure events; occupancy analysis sums it.
	Width  int    `json:"width,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// NoteKind is the kind of the event a decision of kind k is made on, as
// its journal line carries it, or false for the kinds the journal does not
// record: quotes, backfills, and deadline skips.
func (k DecisionKind) NoteKind() (Kind, bool) {
	switch k {
	case DecisionReserve:
		return KindArrival, true
	case DecisionStartSlip, DecisionStart:
		return KindStart, true
	case DecisionCheckpointGrant, DecisionCheckpointSkip:
		return KindCheckpointRequest, true
	case DecisionCheckpointDone:
		return KindCheckpointFinish, true
	case DecisionFinish:
		return KindFinish, true
	case DecisionFailureKill, DecisionFailureIdle:
		return KindFailure, true
	case DecisionRecovery:
		return KindRecovery, true
	default:
		return 0, false
	}
}

// Note renders d as a journal line of kind d.Kind.NoteKind(), or reports
// false for the kinds the journal does not record. Job events carry node
// -1, failure and recovery lines the node.
func (d Decision) Note() (Note, bool) {
	kind, ok := d.Kind.NoteKind()
	if !ok {
		return Note{}, false
	}
	n := Note{Time: d.Time, Kind: kind.String(), JobID: d.JobID, Node: -1}
	switch d.Kind {
	case DecisionReserve:
		n.Detail = "deadline=" + d.Deadline.String() + " p=" + strconv.FormatFloat(d.Promise, 'f', 3, 64)
	case DecisionStartSlip:
		n.Detail = "slip to " + d.SlipTo.String()
	case DecisionStart:
		n.Width = d.Width
	case DecisionCheckpointGrant:
		n.Detail = "perform d=" + strconv.Itoa(d.AtRisk)
	case DecisionCheckpointSkip:
		n.Detail = "skip d=" + strconv.Itoa(d.AtRisk)
	case DecisionFinish:
		n.Width, n.Detail = d.Width, "met="+strconv.FormatBool(d.Met)
	case DecisionFailureKill, DecisionFailureIdle:
		n.Node, n.Width = d.Node, d.Width
		n.Detail = "lost=" + strconv.FormatInt(int64(d.Lost), 10)
	case DecisionRecovery:
		n.Node = d.Node
	}
	return n, true
}

// Phase enumerates the simulator's hot wall-clock phases. PhaseDispatch
// covers whole-event processing; the other phases are timed sections nested
// inside it.
type Phase int

const (
	PhaseDispatch Phase = iota + 1
	PhaseNegotiate
	PhaseSchedule
	PhaseCheckpoint
)

var phaseNames = map[Phase]string{
	PhaseDispatch:   "dispatch",
	PhaseNegotiate:  "negotiate",
	PhaseSchedule:   "schedule",
	PhaseCheckpoint: "checkpoint",
}

func (p Phase) String() string {
	if n, ok := phaseNames[p]; ok {
		return n
	}
	return "unknown"
}

// AllPhases lists the phases in display order (dispatch first).
func AllPhases() []Phase {
	return []Phase{PhaseDispatch, PhaseNegotiate, PhaseSchedule, PhaseCheckpoint}
}

// Probe is the simulator's one instrumentation hook: every engine event as
// a Decision, per-event cluster-state samples, and wall-clock phase
// timings. internal/obs (metrics, series, profile) and internal/eventlog
// (the JSON-lines journal) provide the standard implementations. Probes
// run on the simulator goroutine and must not block; a nil Config.Probe
// costs the run nothing.
type Probe interface {
	// Decision reports one engine event as it happens.
	Decision(Decision)
	// Sample receives the cluster state after every processed event;
	// implementations downsample as they see fit.
	Sample(State)
	// Phase reports the wall-clock spent in one hot phase occurrence.
	Phase(p Phase, elapsed time.Duration)
}

// MultiProbe fans the instrumentation out to several probes in order. Nil
// entries are skipped; with zero or one live probes no fan-out wrapper is
// allocated.
func MultiProbe(probes ...Probe) Probe {
	live := make(multiProbe, 0, len(probes))
	for _, p := range probes {
		if p != nil {
			live = append(live, p)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

type multiProbe []Probe

func (m multiProbe) Decision(d Decision) {
	for _, p := range m {
		p.Decision(d)
	}
}

func (m multiProbe) Sample(st State) {
	for _, p := range m {
		p.Sample(st)
	}
}

func (m multiProbe) Phase(ph Phase, elapsed time.Duration) {
	for _, p := range m {
		p.Phase(ph, elapsed)
	}
}

// phaseStart opens a wall-clock phase timer: it returns time.Now() when a
// probe is attached and the zero Time otherwise, so the uninstrumented path
// never reads the clock.
func (s *Engine) phaseStart() time.Time {
	if s.probe == nil {
		return time.Time{}
	}
	//qoslint:allow detwallclock profiling boundary; feeds obs phase timings, never simulation state
	return time.Now()
}

// phaseEnd closes a timer opened by phaseStart.
func (s *Engine) phaseEnd(p Phase, t0 time.Time) {
	if s.probe == nil {
		return
	}
	//qoslint:allow detwallclock profiling boundary; feeds obs phase timings, never simulation state
	s.probe.Phase(p, time.Since(t0))
}

// decide stamps d with the clock and reports it to the probe, if any.
// Every kind but DecisionQuote has multiplicity 1.
func (s *Engine) decide(d Decision) {
	if s.probe == nil {
		return
	}
	d.Time = s.now
	if d.Kind != DecisionQuote {
		d.N = 1
	}
	s.probe.Decision(d)
}

// state snapshots the cluster-level counters for Probe.Sample.
func (s *Engine) state() State {
	return State{
		Time:            s.now,
		EventsProcessed: s.res.EventsProcessed,
		QueueDepth:      s.queueDepth,
		RunningJobs:     s.runningJobs,
		BusyNodes:       s.busyNodes,
		LostWork:        s.lostWork,
		PromiseSum:      s.promiseSum,
		PromisedJobs:    s.promisedJobs,
	}
}
