package sim

import (
	"errors"
	"fmt"

	"probqos/internal/checkpoint"
	"probqos/internal/cluster"
	"probqos/internal/negotiate"
	"probqos/internal/predict"
	"probqos/internal/sched"
	"probqos/internal/units"
	"probqos/internal/workload"
)

// jobState tracks one job through negotiation, (re)scheduling, execution,
// checkpointing, and failures.
type jobState struct {
	job   workload.Job
	rec   JobRecord
	epoch int

	deadline units.Time
	promised float64

	// doneWork is the checkpointed execution baseline carried across
	// attempts: a restart resumes from here.
	doneWork units.Duration

	// Fields below describe the current attempt and are reset on restart.
	running      bool
	nodes        []int
	attemptStart units.Time
	lastMark     units.Time     // when progress accounting last advanced
	curProgress  units.Duration // execution progress within this attempt
	skippedSince int            // requests skipped since the last performed checkpoint
	inCheckpoint bool
	ckptStarted  units.Time
	hasCkpt      bool       // a checkpoint completed in this attempt
	lastCkptAt   units.Time // start instant of that checkpoint (c_j reference)
	completed    bool
}

// remaining returns the execution time still owed after the attempt's
// current progress.
func (js *jobState) remaining() units.Duration {
	return js.job.Exec - js.doneWork - js.curProgress
}

// rollbackRef returns c_j: the instant the job's work would roll back to if
// its partition failed now (§3.5 lost-work accounting).
func (js *jobState) rollbackRef() units.Time {
	if js.hasCkpt {
		return js.lastCkptAt
	}
	return js.attemptStart
}

// Engine is the live cluster state machine shared by the batch simulator
// and the online negotiation service (internal/service): a cluster, a
// scheduler profile, a negotiator, and an event queue advancing on a
// virtual clock. Run drives an Engine to exhaustion over a workload log;
// the service drives one incrementally with AdvanceTo, Admit, and
// InjectFailure. An Engine is not safe for concurrent use: callers must
// serialize access (the service routes every request through a single
// state-machine goroutine).
type Engine struct {
	cfg       Config
	cluster   *cluster.Cluster
	scheduler *sched.Scheduler
	// pred prices reservations and checkpoint decisions; floor, when
	// non-nil, is the MTBF hazard that checkpoint decisions never price
	// below (Config.BaseRateFloor).
	pred       predict.Predictor
	floor      *predict.BaseRate
	negotiator *negotiate.Negotiator
	user       negotiate.User

	queue      eventQueue
	now        units.Time
	dispatched int // events dispatched, for periodic profile GC
	jobs       map[int]*jobState
	res        Result

	// Occupancy integration: busy node count and the instant it last
	// changed.
	busyNodes  int
	busyMarkAt units.Time
	busyAccum  units.Work

	// history journals every external mutation (Admit, InjectFailure) for
	// ExportState. The batch simulator drives arrivals internally and never
	// appends to it, so Run pays nothing for it.
	history []Op

	// Instrumentation. The counters below are plain integer bookkeeping and
	// are maintained unconditionally; the probe itself is only consulted
	// when non-nil, so an uninstrumented run never reads the wall clock.
	probe        Probe
	queueDepth   int
	runningJobs  int
	lostWork     units.Work
	promiseSum   float64
	promisedJobs int
}

// Run executes the configured simulation to completion and returns the
// collected result. The run is deterministic: equal configs yield equal
// results. It needs a non-empty workload and leaves every other check to
// NewEngine, so the log is validated once.
func Run(cfg Config) (*Result, error) {
	if cfg.Workload == nil || len(cfg.Workload.Jobs) == 0 {
		return nil, errors.New("sim: config needs a non-empty workload")
	}
	s, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.Drain(); err != nil {
		return nil, err
	}
	return s.collect()
}

// NewEngine builds the state machine for cfg without running it: the
// workload's arrivals (if any) and the failure trace are pending, and the
// clock sits at zero. Unlike Run, a nil or empty Workload is accepted —
// the online service admits jobs one at a time instead of replaying a log.
func NewEngine(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	pred := cfg.Predictor
	if pred == nil {
		var err error
		if cfg.PredictionHalfLife > 0 {
			pred, err = predict.NewDecaying(cfg.Failures, cfg.Accuracy, cfg.PredictionHalfLife)
		} else {
			pred, err = predict.NewTrace(cfg.Failures, cfg.Accuracy)
		}
		if err != nil {
			return nil, err
		}
	}
	var jobs []workload.Job
	if cfg.Workload != nil {
		jobs = cfg.Workload.Jobs
	}
	s := &Engine{
		cfg:     cfg,
		cluster: cluster.New(cfg.Nodes),
		pred:    pred,
		queue:   newEventQueue(jobs, cfg.Failures),
		jobs:    make(map[int]*jobState, len(jobs)),
		probe:   cfg.Probe,
	}
	if cfg.BaseRateFloor {
		// An empty or degenerate trace has no estimable MTBF; the forecast
		// alone is then the best available hazard.
		s.floor, _ = predict.NewBaseRateFromTrace(cfg.Failures)
	}
	s.scheduler = sched.New(cfg.Nodes, pred,
		sched.WithFaultAware(cfg.FaultAware),
		sched.WithQuoteSlack(cfg.Downtime),
	)
	s.negotiator = negotiate.New(s.scheduler)
	s.user = negotiate.User{U: cfg.UserRisk}
	if !cfg.Negotiate {
		s.user = negotiate.User{U: 0} // every first quote accepted
	}

	// One slab for every job state: the map's values all point into it,
	// replacing a per-job allocation. Jobs admitted later (online service)
	// still allocate individually.
	states := make([]jobState, len(jobs))
	for i, j := range jobs {
		if _, dup := s.jobs[j.ID]; dup {
			return nil, fmt.Errorf("sim: duplicate job ID %d in workload", j.ID)
		}
		states[i].job = j
		s.jobs[j.ID] = &states[i]
	}
	return s, nil
}

// Drain processes events until the queue is empty, however far into the
// future that reaches. Run uses it to replay a whole workload log.
func (s *Engine) Drain() error {
	for s.queue.len() > 0 {
		if err := s.step(); err != nil {
			return err
		}
	}
	return nil
}

// step pops and dispatches the next event, advancing the clock to it.
func (s *Engine) step() error {
	ev := s.queue.pop()
	if ev.time < s.now {
		return fmt.Errorf("sim: time went backwards: %v -> %v (%v)", s.now, ev.time, ev.kind)
	}
	s.now = ev.time
	s.res.EventsProcessed++
	s.dispatched++
	if s.dispatched%512 == 0 {
		s.scheduler.GC(s.now)
	}

	t0 := s.phaseStart()
	var err error
	switch ev.kind {
	case KindArrival:
		err = s.onArrival(ev)
	case KindStart:
		err = s.onStart(ev)
	case KindCheckpointRequest:
		err = s.onCheckpointRequest(ev)
	case KindCheckpointFinish:
		err = s.onCheckpointFinish(ev)
	case KindFinish:
		err = s.onFinish(ev)
	case KindFailure:
		err = s.onFailure(ev)
	case KindRecovery:
		s.decide(Decision{Kind: DecisionRecovery, Node: ev.node})
	default:
		err = fmt.Errorf("sim: unknown event kind %d", ev.kind)
	}
	if err != nil {
		return err
	}
	s.phaseEnd(PhaseDispatch, t0)
	if s.probe != nil {
		s.probe.Sample(s.state())
	}
	return nil
}

// stale reports whether a job event belongs to a superseded attempt.
func (s *Engine) stale(ev event) bool {
	js, ok := s.jobs[ev.jobID]
	if !ok || js.epoch != ev.epoch || js.completed {
		s.res.StaleEventsDropped++
		return true
	}
	return false
}

func (s *Engine) onArrival(ev event) error {
	js := s.jobs[ev.jobID]
	duration := plannedDuration(js.job.PlanExec(), s.cfg.Checkpoint)
	t0 := s.phaseStart()
	quote, offers, err := s.negotiator.Negotiate(s.now, js.job.Nodes, duration, s.user)
	s.phaseEnd(PhaseNegotiate, t0)
	if err != nil {
		return fmt.Errorf("sim: job %d: %w", js.job.ID, err)
	}
	s.decide(Decision{Kind: DecisionQuote, JobID: js.job.ID, N: offers})
	t0 = s.phaseStart()
	err = s.scheduler.Reserve(js.job.ID, quote.Candidate, duration)
	s.phaseEnd(PhaseSchedule, t0)
	if err != nil {
		return fmt.Errorf("sim: job %d: %w", js.job.ID, err)
	}
	s.commit(js, quote, offers)
	return nil
}

// commit files the promise of a reserved quote on its job — the one path
// for workload arrivals and admitted jobs alike: the deadline and promised
// probability, the dialog length, the queue and promise counters, the
// start event, and the Reserve decision.
func (s *Engine) commit(js *jobState, q negotiate.Quote, offers int) {
	js.deadline = q.Deadline
	js.promised = q.Success
	js.rec.Quotes = offers
	s.queueDepth++
	s.promiseSum += q.Success
	s.promisedJobs++
	s.queue.push(event{time: q.Candidate.Start, kind: KindStart, jobID: js.job.ID, epoch: js.epoch})
	s.decide(Decision{Kind: DecisionReserve, JobID: js.job.ID, Deadline: q.Deadline, Promise: q.Success})
}

func (s *Engine) onStart(ev event) error {
	if s.stale(ev) {
		return nil
	}
	js := s.jobs[ev.jobID]
	r, ok := s.scheduler.Reservation(js.job.ID)
	if !ok {
		return fmt.Errorf("sim: job %d has a start event but no reservation", js.job.ID)
	}

	// A node may be down (recent failure) or still running a slipped
	// predecessor; in either case the start slips — there is no dynamic
	// re-optimization of placements (§3.3).
	retry := s.now
	for _, n := range r.Nodes {
		if up := s.cluster.UpAt(n, s.now); up > retry {
			retry = up
		}
		if occ := s.cluster.Occupant(n); occ != cluster.NoJob {
			if est := s.estimateFinish(s.jobs[occ]); est > retry {
				retry = est
			}
		}
	}
	if retry > s.now {
		if err := s.scheduler.Slip(js.job.ID, retry); err != nil {
			return err
		}
		js.rec.StartSlips++
		s.decide(Decision{Kind: DecisionStartSlip, JobID: js.job.ID, SlipTo: retry})
		s.queue.push(event{time: retry, kind: KindStart, jobID: js.job.ID, epoch: js.epoch})
		return nil
	}

	if err := s.cluster.Occupy(r.Nodes, js.job.ID); err != nil {
		return err
	}
	s.accountOccupancy(len(r.Nodes))
	s.queueDepth--
	s.runningJobs++
	js.running = true
	// Safe to alias: a reservation's node slice is never written or reused.
	js.nodes = r.Nodes
	js.attemptStart = s.now
	js.lastMark = s.now
	js.curProgress = 0
	js.skippedSince = 0
	js.inCheckpoint = false
	js.hasCkpt = false
	js.rec.Attempts++
	if js.rec.Attempts == 1 {
		js.rec.FirstStart = s.now
	}
	js.rec.LastStart = s.now
	s.decide(Decision{Kind: DecisionStart, JobID: js.job.ID, Width: len(js.nodes)})
	s.scheduleNextWork(js)
	return nil
}

// estimateFinish returns a lower bound on a running job's completion
// instant: the end of any in-flight checkpoint plus its remaining
// execution. Start-slip retries use it; if the job performs further
// checkpoints the retry simply re-estimates, each time strictly later.
func (s *Engine) estimateFinish(js *jobState) units.Time {
	base := s.now
	if js.inCheckpoint {
		base = js.ckptStarted.Add(s.cfg.Checkpoint.Overhead)
	}
	est := base.Add(js.remaining())
	if !est.After(s.now) {
		est = s.now.Add(1)
	}
	return est
}

// scheduleNextWork schedules the job's next progress milestone: its finish,
// if no more checkpoint requests intervene, or the next checkpoint request
// after a full interval of progress.
func (s *Engine) scheduleNextWork(js *jobState) {
	rem := js.remaining()
	if rem <= s.cfg.Checkpoint.Interval {
		s.queue.push(event{time: s.now.Add(rem), kind: KindFinish, jobID: js.job.ID, epoch: js.epoch})
		return
	}
	s.queue.push(event{
		time: s.now.Add(s.cfg.Checkpoint.Interval), kind: KindCheckpointRequest,
		jobID: js.job.ID, epoch: js.epoch,
	})
}

func (s *Engine) onCheckpointRequest(ev event) error {
	if s.stale(ev) {
		return nil
	}
	js := s.jobs[ev.jobID]
	js.curProgress += s.now.Sub(js.lastMark)
	js.lastMark = s.now

	p := s.cfg.Checkpoint
	rem := js.remaining()
	estSkip := s.now.Add(plannedDuration(rem, p))
	estPerform := estSkip.Add(p.Overhead)
	t0 := s.phaseStart()
	riskTo := s.now.Add(p.Interval + p.Overhead)
	pf := s.pred.PFail(js.nodes, s.now, riskTo)
	if s.floor != nil {
		pf = max(pf, s.floor.PFail(js.nodes, s.now, riskTo))
	}
	req := checkpoint.Request{
		Now:                s.now,
		PFail:              pf,
		Params:             p,
		AtRiskIntervals:    js.skippedSince + 1,
		Deadline:           js.deadline,
		EstFinishIfPerform: estPerform,
		EstFinishIfSkip:    estSkip,
	}
	perform := s.cfg.Policy.ShouldCheckpoint(req)
	deadlineSkip := perform && s.cfg.DeadlineSkip && estPerform.After(js.deadline) && !estSkip.After(js.deadline)
	s.phaseEnd(PhaseCheckpoint, t0)
	if deadlineSkip {
		perform = false
		js.rec.DeadlineSkips++
		s.decide(Decision{Kind: DecisionCheckpointDeadlineSkip, JobID: js.job.ID, AtRisk: req.AtRiskIntervals})
	}
	if perform {
		s.decide(Decision{Kind: DecisionCheckpointGrant, JobID: js.job.ID, AtRisk: req.AtRiskIntervals})
		js.inCheckpoint = true
		js.ckptStarted = s.now
		s.queue.push(event{time: s.now.Add(p.Overhead), kind: KindCheckpointFinish, jobID: js.job.ID, epoch: js.epoch})
		return nil
	}
	s.decide(Decision{Kind: DecisionCheckpointSkip, JobID: js.job.ID, AtRisk: req.AtRiskIntervals})
	js.rec.CheckpointsSkipped++
	js.skippedSince++
	s.scheduleNextWork(js)
	return nil
}

func (s *Engine) onCheckpointFinish(ev event) error {
	if s.stale(ev) {
		return nil
	}
	js := s.jobs[ev.jobID]
	js.doneWork += js.curProgress
	js.curProgress = 0
	js.hasCkpt = true
	js.lastCkptAt = js.ckptStarted
	js.skippedSince = 0
	js.inCheckpoint = false
	js.lastMark = s.now
	js.rec.CheckpointsDone++
	js.rec.CheckpointOverheads += s.cfg.Checkpoint.Overhead
	s.decide(Decision{Kind: DecisionCheckpointDone, JobID: js.job.ID})
	s.scheduleNextWork(js)
	return nil
}

func (s *Engine) onFinish(ev event) error {
	if s.stale(ev) {
		return nil
	}
	js := s.jobs[ev.jobID]
	js.curProgress += s.now.Sub(js.lastMark)
	js.lastMark = s.now
	if got := js.remaining(); got != 0 {
		return fmt.Errorf("sim: job %d finished with %v work remaining", js.job.ID, got)
	}
	js.completed = true
	js.running = false
	js.rec.Finish = s.now
	js.rec.MetDeadline = !s.now.After(js.deadline)
	if err := s.cluster.Release(js.nodes, js.job.ID); err != nil {
		return err
	}
	s.accountOccupancy(-len(js.nodes))
	s.runningJobs--
	s.scheduler.CompleteEarly(js.job.ID, s.now)
	s.decide(Decision{Kind: DecisionFinish, JobID: js.job.ID, Width: len(js.nodes), Met: js.rec.MetDeadline})
	return nil
}

func (s *Engine) onFailure(ev event) error {
	node := ev.node
	s.cluster.Fail(node, s.now, s.cfg.Downtime)
	s.scheduler.AddDowntime(node, s.now, s.now.Add(s.cfg.Downtime))
	s.queue.push(event{time: s.now.Add(s.cfg.Downtime), kind: KindRecovery, node: node})

	frec := FailureRecord{Time: s.now, Node: node}
	if occ := s.cluster.Occupant(node); occ != cluster.NoJob {
		js := s.jobs[occ]
		lost := units.WorkFor(js.job.Nodes, s.now.Sub(js.rollbackRef()))
		frec.JobID = occ
		frec.LostWork = lost
		js.rec.LostWork += lost
		js.rec.FailuresSuffered++
		s.lostWork += lost
		s.decide(Decision{Kind: DecisionFailureKill, JobID: occ, Node: node, Width: js.job.Nodes, Lost: lost})
		if err := s.cluster.Release(js.nodes, occ); err != nil {
			return err
		}
		s.accountOccupancy(-len(js.nodes))
		s.runningJobs--
		s.queueDepth++
		s.scheduler.Release(occ)
		js.epoch++
		js.running = false
		js.inCheckpoint = false
		js.curProgress = 0
		if err := s.requeue(js); err != nil {
			return err
		}
	} else {
		s.decide(Decision{Kind: DecisionFailureIdle, Node: node})
	}
	s.res.Failures = append(s.res.Failures, frec)
	return nil
}

// requeue reschedules a failed job from its last completed checkpoint. The
// original deadline and promise stand — there is no renegotiation — and
// existing reservations are not disturbed ("jobs that have already been
// scheduled for later execution retain their scheduled partition"): the
// restarted job takes the earliest slot the profile offers, which is
// usually the tail of its own just-vacated reservation plus any backfill
// hole it fits.
func (s *Engine) requeue(js *jobState) error {
	duration := plannedDuration(js.job.PlanExec()-js.doneWork, s.cfg.Checkpoint)
	t0 := s.phaseStart()
	c, ok := s.scheduler.EarliestCandidate(s.now, js.job.Nodes, duration)
	if !ok {
		s.phaseEnd(PhaseSchedule, t0)
		return fmt.Errorf("sim: job %d cannot be rescheduled after failure", js.job.ID)
	}
	err := s.scheduler.Reserve(js.job.ID, c, duration)
	s.phaseEnd(PhaseSchedule, t0)
	if err != nil {
		return fmt.Errorf("sim: job %d: %w", js.job.ID, err)
	}
	s.decide(Decision{Kind: DecisionBackfill, JobID: js.job.ID})
	s.queue.push(event{time: c.Start, kind: KindStart, jobID: js.job.ID, epoch: js.epoch})
	return nil
}

// accountOccupancy integrates busy node-seconds up to now, then applies a
// change in the number of occupied nodes.
func (s *Engine) accountOccupancy(delta int) {
	s.busyAccum += units.WorkFor(s.busyNodes, s.now.Sub(s.busyMarkAt))
	s.busyNodes += delta
	s.busyMarkAt = s.now
}

func (s *Engine) collect() (*Result, error) {
	s.accountOccupancy(0) // flush the final busy stretch
	s.res.BusyNodeSeconds = s.busyAccum
	s.res.ClusterNodes = s.cfg.Nodes
	s.res.Jobs = make([]JobRecord, 0, len(s.jobs))
	for _, j := range s.cfg.Workload.Jobs {
		js := s.jobs[j.ID]
		if !js.completed {
			return nil, fmt.Errorf("sim: job %d never completed", j.ID)
		}
		js.rec.ID = j.ID
		js.rec.Nodes = j.Nodes
		js.rec.Exec = j.Exec
		js.rec.Arrival = j.Arrival
		js.rec.Deadline = js.deadline
		js.rec.Promised = js.promised
		s.res.Jobs = append(s.res.Jobs, js.rec)
	}
	s.res.Start = s.res.Jobs[0].Arrival
	s.res.End = s.res.Jobs[0].Finish
	for _, r := range s.res.Jobs {
		s.res.Start = s.res.Start.Min(r.Arrival)
		s.res.End = s.res.End.Max(r.Finish)
	}
	return &s.res, nil
}
