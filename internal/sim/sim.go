package sim

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"probqos/internal/checkpoint"
	"probqos/internal/cluster"
	"probqos/internal/negotiate"
	"probqos/internal/predict"
	"probqos/internal/sched"
	"probqos/internal/units"
	"probqos/internal/workload"
)

// jobState tracks one job through negotiation, (re)scheduling, execution,
// checkpointing, and failures. Its record carries the job's identity, its
// promise and its outcome as they happen; the fields here are the
// bookkeeping of the attempt under way.
type jobState struct {
	rec   *JobRecord
	plan  units.Duration // the runtime reservations plan for (Job.PlanExec)
	epoch int

	// doneWork is the checkpointed execution baseline carried across
	// attempts: a restart resumes from here.
	doneWork units.Duration

	// res is the job's one placement: its reserved start and node set. A
	// slip moves the start; a failure releases it and the requeue
	// reserves anew.
	res sched.Reservation

	// Fields below describe the current attempt and are reset on restart.
	lastMark    units.Time     // when progress accounting last advanced
	curProgress units.Duration // execution progress within this attempt
	ckptStarted units.Time
	// rollbackAt is c_j, the instant the job's work would roll back to if
	// its partition failed now (§3.5 lost-work accounting): the attempt's
	// start, then the start of its last completed checkpoint.
	rollbackAt units.Time
	// skippedSince counts requests skipped since the last performed
	// checkpoint; an int32 shares a word with the flags below.
	skippedSince int32
	running      bool
	inCheckpoint bool
	hasCkpt      bool // a checkpoint completed in this attempt
	completed    bool
}

// fill starts js afresh for job: it points js at rec, records job's
// identity there, and gives the job's reservations nodes, the job's region
// of the engine's node slab, to hold their node set.
func (js *jobState) fill(job workload.Job, rec *JobRecord, nodes []int) {
	rec.ID, rec.Nodes, rec.Exec, rec.Arrival = job.ID, job.Nodes, job.Exec, job.Arrival
	*js = jobState{rec: rec, plan: job.PlanExec(), res: sched.Reservation{Nodes: nodes}}
}

// hold makes res, just committed, the job's reservation. Its node set is
// copied into the job's region of the node slab: Reserve keeps the
// candidate's nodes, which may be scheduler scratch, valid only until the
// next query (see sched.Candidate). A failed job's reservation is released
// before it reserves again, so one region serves every attempt.
func (js *jobState) hold(res sched.Reservation) {
	copy(js.res.Nodes, res.Nodes)
	res.Nodes = js.res.Nodes
	js.res = res
}

// remaining returns the execution time still owed after the attempt's
// current progress.
func (js *jobState) remaining() units.Duration {
	return js.rec.Exec - js.doneWork - js.curProgress
}

// Engine is the live cluster state machine shared by the batch simulator
// and the online negotiation service (internal/service): a cluster, a
// scheduler profile, a negotiator, and an event queue advancing on a
// virtual clock. Run drives an Engine to exhaustion over a workload log;
// the service drives one incrementally with AdvanceTo, Admit, and
// InjectFailure. An Engine is not safe for concurrent use: callers must
// serialize access (the service routes every request through a single
// state-machine goroutine).
//
// The cluster, the scheduler, the event heap, the workload's job states,
// the slot table and the node slab are the engine's working set: Run
// recycles them across runs through a pool (see reset and recycle).
type Engine struct {
	cfg       Config
	cluster   cluster.Cluster
	scheduler sched.Scheduler
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
	res        Result

	// slots is the job table, indexed by admission order: the workload's
	// jobs in log order, then each admitted job. Events and cluster
	// occupants carry the slot; job IDs appear only at the API edge. While
	// IDs strictly increase in slot order a lookup by ID is a binary
	// search; byID maps ID to slot once they stop doing so.
	slots []*jobState
	byID  map[int]int
	// states holds the workload's jobs, slot by slot; admitted jobs
	// allocate their own.
	states []jobState
	// nodes is the node slab: every job owns a region of it as wide as
	// the job, in which each of its reservations keeps its node set.
	nodes []int

	// Occupancy integration: busy node count and the instant it last
	// changed.
	busyNodes  int
	busyMarkAt units.Time
	busyAccum  units.Work

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

// enginePool holds the engines of finished runs, so that a sweep of
// independent runs reuses one working set per worker instead of
// allocating it per run.
var enginePool = sync.Pool{New: func() any { return new(Engine) }}

// Run executes the configured simulation to completion and returns the
// collected result. The run is deterministic: equal configs yield equal
// results. It needs a non-empty workload and leaves every other check to
// reset, so the log is validated once. The run's engine comes from a pool
// and goes back to it; the Result shares no memory with it.
func Run(cfg Config) (*Result, error) {
	if cfg.Workload == nil || len(cfg.Workload.Jobs) == 0 {
		return nil, errors.New("sim: config needs a non-empty workload")
	}
	s := enginePool.Get().(*Engine)
	defer s.recycle()
	return s.run(cfg)
}

// run resets s to cfg, drains it and collects the result.
func (s *Engine) run(cfg Config) (*Result, error) {
	if err := s.reset(cfg); err != nil {
		return nil, err
	}
	// Without injected failures the run processes exactly the trace's.
	s.res.Failures = make([]FailureRecord, 0, cfg.Failures.Len())
	if err := s.Drain(); err != nil {
		return nil, err
	}
	return s.collect()
}

// NewEngine builds the state machine for cfg without running it: the
// workload's arrivals (if any) and the failure trace are pending, and the
// clock sits at zero. Unlike Run, a nil or empty Workload is accepted —
// the online service admits jobs one at a time instead of replaying a log.
// The engine is the caller's for good: nothing returns it to Run's pool.
func NewEngine(cfg Config) (*Engine, error) {
	s := new(Engine)
	if err := s.reset(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// reset readies s to run cfg from time zero. Every field starts from its
// zero value but the working set, whose memory is kept and emptied: a new
// engine has none yet and allocates it here, a recycled one allocates only
// where cfg needs more than an earlier run did.
func (s *Engine) reset(cfg Config) error {
	if err := cfg.validate(); err != nil {
		return err
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
			return err
		}
	}
	var jobs []workload.Job
	if cfg.Workload != nil {
		jobs = cfg.Workload.Jobs
	}
	s.clearRun()
	s.cfg, s.pred, s.probe = cfg, pred, cfg.Probe
	s.cluster.Reset(cfg.Nodes)
	s.queue.reset(jobs, cfg.Failures)
	if cfg.BaseRateFloor {
		// An empty or degenerate trace has no estimable MTBF; the forecast
		// alone is then the best available hazard.
		s.floor, _ = predict.NewBaseRateFromTrace(cfg.Failures)
	}
	s.scheduler.Reset(cfg.Nodes, pred, cfg.FaultAware, cfg.Downtime)
	s.negotiator = negotiate.New(&s.scheduler)
	s.user = negotiate.User{U: cfg.UserRisk}
	if !cfg.Negotiate {
		s.user = negotiate.User{U: 0} // every first quote accepted
	}

	// The workload's jobs fill the first slots from one slab of states and
	// one of records, and their node regions from one stretch of the node
	// slab. The records are built in place as the run goes, in log order,
	// and Run returns that slab as Result.Jobs. Jobs admitted later (online
	// service) allocate state and record together.
	width := 0
	for _, j := range jobs {
		width += j.Nodes
	}
	s.nodes = slices.Grow(s.nodes, width)
	s.states = slices.Grow(s.states, len(jobs))[:len(jobs)]
	s.slots = slices.Grow(s.slots, len(jobs))
	s.res.Jobs = make([]JobRecord, len(jobs))
	for i, j := range jobs {
		s.states[i].fill(j, &s.res.Jobs[i], s.carve(j.Nodes))
		if !s.file(&s.states[i]) {
			return fmt.Errorf("sim: duplicate job ID %d in workload", j.ID)
		}
	}
	return nil
}

// clearRun zeroes every field of s but the working set, which it empties
// (the lengths go to zero, the arrays stay).
func (s *Engine) clearRun() {
	*s = Engine{
		cluster:   s.cluster,
		scheduler: s.scheduler,
		queue:     eventQueue{heap: s.queue.heap[:0]},
		slots:     s.slots[:0],
		states:    s.states[:0],
		nodes:     s.nodes[:0],
	}
}

// recycle returns a finished batch run's engine to the pool. It first
// drops every pointer into what the run's caller keeps: each job state
// points at its record in the returned Result.Jobs, so a pooled engine
// would pin the whole Result. (The scheduler keeps its predictor until the
// next reset; that references the trace, never the records.)
func (s *Engine) recycle() {
	clear(s.states)
	s.clearRun()
	enginePool.Put(s)
}

// nodeChunk is how many nodes the slab takes at a time once admitted jobs
// outgrow it. A new stretch, not a grown copy, leaves the earlier regions
// where they are: jobs still hold them.
const nodeChunk = 1024

// carve takes the next k nodes of the node slab: the region of one job,
// which all its reservations reuse in turn.
func (s *Engine) carve(k int) []int {
	if cap(s.nodes)-len(s.nodes) < k {
		s.nodes = make([]int, 0, max(k, nodeChunk))
	}
	n := len(s.nodes)
	s.nodes = s.nodes[:n+k]
	return s.nodes[n : n+k : n+k]
}

// file gives js the next slot. It reports false, filing nothing, if a job
// with the same ID already holds one. The first ID that does not exceed
// its predecessor's builds the ID map over every slot.
func (s *Engine) file(js *jobState) bool {
	id, slot := js.rec.ID, len(s.slots)
	if s.byID == nil && slot > 0 && id <= s.slots[slot-1].rec.ID {
		s.byID = make(map[int]int, slot+1)
		for i, o := range s.slots {
			s.byID[o.rec.ID] = i
		}
	}
	if s.byID != nil {
		if _, dup := s.byID[id]; dup {
			return false
		}
		s.byID[id] = slot
	}
	s.slots = append(s.slots, js)
	return true
}

// slotOf returns the slot of the job with the given ID.
func (s *Engine) slotOf(id int) (int, bool) {
	if s.byID != nil {
		slot, ok := s.byID[id]
		return slot, ok
	}
	return slices.BinarySearchFunc(s.slots, id, func(js *jobState, id int) int {
		return cmp.Compare(js.rec.ID, id)
	})
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
	js := s.slots[ev.slot]
	if js.epoch != ev.epoch || js.completed {
		s.res.StaleEventsDropped++
		return true
	}
	return false
}

func (s *Engine) onArrival(ev event) error {
	js := s.slots[ev.slot]
	duration := plannedDuration(js.plan, s.cfg.Checkpoint)
	t0 := s.phaseStart()
	quote, offers, err := s.negotiator.Negotiate(s.now, js.rec.Nodes, duration, s.user)
	s.phaseEnd(PhaseNegotiate, t0)
	if err != nil {
		return fmt.Errorf("sim: job %d: %w", js.rec.ID, err)
	}
	s.decide(Decision{Kind: DecisionQuote, JobID: js.rec.ID, N: offers})
	t0 = s.phaseStart()
	res, err := s.scheduler.Reserve(js.rec.ID, quote.Candidate, duration)
	s.phaseEnd(PhaseSchedule, t0)
	if err != nil {
		return fmt.Errorf("sim: job %d: %w", js.rec.ID, err)
	}
	js.hold(res)
	s.commit(ev.slot, quote, offers)
	return nil
}

// commit files the promise of a reserved quote on the job in slot — the
// one path for workload arrivals and admitted jobs alike: the deadline and
// promised probability, the dialog length, the queue and promise counters,
// the start event, and the Reserve decision.
func (s *Engine) commit(slot int, q negotiate.Quote, offers int) {
	js := s.slots[slot]
	js.rec.Deadline = q.Deadline
	js.rec.Promised = q.Success
	js.rec.Quotes = offers
	s.queueDepth++
	s.promiseSum += q.Success
	s.promisedJobs++
	s.queue.push(event{time: q.Candidate.Start, kind: KindStart, slot: slot, epoch: js.epoch})
	s.decide(Decision{Kind: DecisionReserve, JobID: js.rec.ID, Deadline: q.Deadline, Promise: q.Success})
}

func (s *Engine) onStart(ev event) error {
	if s.stale(ev) {
		return nil
	}
	js := s.slots[ev.slot]

	// A node may be down (recent failure) or still running a slipped
	// predecessor; in either case the start slips — there is no dynamic
	// re-optimization of placements (§3.3).
	retry := s.now
	for _, n := range js.res.Nodes {
		if up := s.cluster.UpAt(n, s.now); up > retry {
			retry = up
		}
		if occ := s.cluster.Occupant(n); occ != cluster.NoJob {
			if est := s.estimateFinish(s.slots[occ]); est > retry {
				retry = est
			}
		}
	}
	if retry > s.now {
		s.scheduler.Slip(&js.res, retry)
		js.rec.StartSlips++
		s.decide(Decision{Kind: DecisionStartSlip, JobID: js.rec.ID, SlipTo: retry})
		s.queue.push(event{time: retry, kind: KindStart, slot: ev.slot, epoch: js.epoch})
		return nil
	}

	if err := s.cluster.Occupy(js.res.Nodes, ev.slot); err != nil {
		return err
	}
	s.accountOccupancy(len(js.res.Nodes))
	s.queueDepth--
	s.runningJobs++
	js.running = true
	js.rollbackAt = s.now
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
	s.decide(Decision{Kind: DecisionStart, JobID: js.rec.ID, Width: len(js.res.Nodes)})
	s.scheduleNextWork(ev.slot)
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

// scheduleNextWork schedules the next progress milestone of the job in
// slot: its finish, if no more checkpoint requests intervene, or the next
// checkpoint request after a full interval of progress.
func (s *Engine) scheduleNextWork(slot int) {
	js := s.slots[slot]
	rem := js.remaining()
	if rem <= s.cfg.Checkpoint.Interval {
		s.queue.push(event{time: s.now.Add(rem), kind: KindFinish, slot: slot, epoch: js.epoch})
		return
	}
	s.queue.push(event{
		time: s.now.Add(s.cfg.Checkpoint.Interval), kind: KindCheckpointRequest,
		slot: slot, epoch: js.epoch,
	})
}

func (s *Engine) onCheckpointRequest(ev event) error {
	if s.stale(ev) {
		return nil
	}
	js := s.slots[ev.slot]
	js.curProgress += s.now.Sub(js.lastMark)
	js.lastMark = s.now

	p := s.cfg.Checkpoint
	rem := js.remaining()
	estSkip := s.now.Add(plannedDuration(rem, p))
	estPerform := estSkip.Add(p.Overhead)
	t0 := s.phaseStart()
	riskTo := s.now.Add(p.Interval + p.Overhead)
	pf := s.pred.PFail(js.res.Nodes, s.now, riskTo)
	if s.floor != nil {
		pf = max(pf, s.floor.PFail(js.res.Nodes, s.now, riskTo))
	}
	req := checkpoint.Request{
		Now:                s.now,
		PFail:              pf,
		Params:             p,
		AtRiskIntervals:    int(js.skippedSince) + 1,
		Deadline:           js.rec.Deadline,
		EstFinishIfPerform: estPerform,
		EstFinishIfSkip:    estSkip,
	}
	perform := s.cfg.Policy.ShouldCheckpoint(req)
	deadlineSkip := perform && s.cfg.DeadlineSkip && estPerform.After(js.rec.Deadline) && !estSkip.After(js.rec.Deadline)
	s.phaseEnd(PhaseCheckpoint, t0)
	if deadlineSkip {
		perform = false
		js.rec.DeadlineSkips++
		s.decide(Decision{Kind: DecisionCheckpointDeadlineSkip, JobID: js.rec.ID, AtRisk: req.AtRiskIntervals})
	}
	if perform {
		s.decide(Decision{Kind: DecisionCheckpointGrant, JobID: js.rec.ID, AtRisk: req.AtRiskIntervals})
		js.inCheckpoint = true
		js.ckptStarted = s.now
		s.queue.push(event{time: s.now.Add(p.Overhead), kind: KindCheckpointFinish, slot: ev.slot, epoch: js.epoch})
		return nil
	}
	s.decide(Decision{Kind: DecisionCheckpointSkip, JobID: js.rec.ID, AtRisk: req.AtRiskIntervals})
	js.rec.CheckpointsSkipped++
	js.skippedSince++
	s.scheduleNextWork(ev.slot)
	return nil
}

func (s *Engine) onCheckpointFinish(ev event) error {
	if s.stale(ev) {
		return nil
	}
	js := s.slots[ev.slot]
	js.doneWork += js.curProgress
	js.curProgress = 0
	js.hasCkpt = true
	js.rollbackAt = js.ckptStarted
	js.skippedSince = 0
	js.inCheckpoint = false
	js.lastMark = s.now
	js.rec.CheckpointsDone++
	js.rec.CheckpointOverheads += s.cfg.Checkpoint.Overhead
	s.decide(Decision{Kind: DecisionCheckpointDone, JobID: js.rec.ID})
	s.scheduleNextWork(ev.slot)
	return nil
}

func (s *Engine) onFinish(ev event) error {
	if s.stale(ev) {
		return nil
	}
	js := s.slots[ev.slot]
	js.curProgress += s.now.Sub(js.lastMark)
	js.lastMark = s.now
	if got := js.remaining(); got != 0 {
		return fmt.Errorf("sim: job %d finished with %v work remaining", js.rec.ID, got)
	}
	js.completed = true
	js.running = false
	js.rec.Finish = s.now
	js.rec.MetDeadline = !s.now.After(js.rec.Deadline)
	if err := s.cluster.Release(js.res.Nodes, ev.slot); err != nil {
		return err
	}
	s.accountOccupancy(-len(js.res.Nodes))
	s.runningJobs--
	s.scheduler.CompleteEarly(js.res, s.now)
	s.decide(Decision{Kind: DecisionFinish, JobID: js.rec.ID, Width: len(js.res.Nodes), Met: js.rec.MetDeadline})
	return nil
}

func (s *Engine) onFailure(ev event) error {
	node := ev.node
	s.cluster.Fail(node, s.now, s.cfg.Downtime)
	s.scheduler.AddDowntime(node, s.now, s.now.Add(s.cfg.Downtime))
	s.queue.push(event{time: s.now.Add(s.cfg.Downtime), kind: KindRecovery, node: node})

	frec := FailureRecord{Time: s.now, Node: node}
	if occ := s.cluster.Occupant(node); occ != cluster.NoJob {
		js := s.slots[occ]
		id := js.rec.ID
		lost := units.WorkFor(js.rec.Nodes, s.now.Sub(js.rollbackAt))
		frec.JobID = id
		frec.LostWork = lost
		js.rec.LostWork += lost
		js.rec.FailuresSuffered++
		s.lostWork += lost
		s.decide(Decision{Kind: DecisionFailureKill, JobID: id, Node: node, Width: js.rec.Nodes, Lost: lost})
		if err := s.cluster.Release(js.res.Nodes, occ); err != nil {
			return err
		}
		s.accountOccupancy(-len(js.res.Nodes))
		s.runningJobs--
		s.queueDepth++
		s.scheduler.Release(js.res)
		js.epoch++
		js.running = false
		js.inCheckpoint = false
		js.curProgress = 0
		if err := s.requeue(occ); err != nil {
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
func (s *Engine) requeue(slot int) error {
	js := s.slots[slot]
	duration := plannedDuration(js.plan-js.doneWork, s.cfg.Checkpoint)
	t0 := s.phaseStart()
	c, ok := s.scheduler.EarliestCandidate(s.now, js.rec.Nodes, duration)
	if !ok {
		s.phaseEnd(PhaseSchedule, t0)
		return fmt.Errorf("sim: job %d cannot be rescheduled after failure", js.rec.ID)
	}
	res, err := s.scheduler.Reserve(js.rec.ID, c, duration)
	s.phaseEnd(PhaseSchedule, t0)
	if err != nil {
		return fmt.Errorf("sim: job %d: %w", js.rec.ID, err)
	}
	js.hold(res)
	s.decide(Decision{Kind: DecisionBackfill, JobID: js.rec.ID})
	s.queue.push(event{time: c.Start, kind: KindStart, slot: slot, epoch: js.epoch})
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
	s.res.Start = s.res.Jobs[0].Arrival
	s.res.End = s.res.Jobs[0].Finish
	for _, js := range s.slots {
		if !js.completed {
			return nil, fmt.Errorf("sim: job %d never completed", js.rec.ID)
		}
		s.res.Start = s.res.Start.Min(js.rec.Arrival)
		s.res.End = s.res.End.Max(js.rec.Finish)
	}
	res := s.res
	return &res, nil
}
