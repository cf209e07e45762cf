package sched

import (
	"fmt"
	"sort"

	"probqos/internal/predict"
	"probqos/internal/units"
)

// Candidate is one schedulable option for a job: a start time, a concrete
// node set, and the predicted probability that this partition fails during
// the reservation window. The negotiation layer walks successive candidates
// quoting (deadline, probability) pairs to the user.
type Candidate struct {
	Start units.Time `json:"start"`
	Nodes []int      `json:"nodes"`
	PFail float64    `json:"pfail"`
}

// Reservation records a job's committed placement.
type Reservation struct {
	JobID    int
	Start    units.Time
	Duration units.Duration
	Nodes    []int
	PFail    float64
}

// End returns the reserved end instant.
func (r Reservation) End() units.Time { return r.Start.Add(r.Duration) }

// Option configures a Scheduler.
type Option interface{ apply(*Scheduler) }

type optionFunc func(*Scheduler)

func (f optionFunc) apply(s *Scheduler) { f(s) }

// WithFaultAware toggles prediction-driven node selection. When disabled
// the scheduler picks the lowest-numbered free nodes (first fit), the
// non-fault-aware baseline.
func WithFaultAware(enabled bool) Option {
	return optionFunc(func(s *Scheduler) { s.faultAware = enabled })
}

// WithMaxCandidates bounds how many candidate start times a single
// EarliestCandidate query considers before falling back to the last
// interval end. Defaults to 512.
func WithMaxCandidates(n int) Option {
	return optionFunc(func(s *Scheduler) { s.maxCandidates = n })
}

// WithQuoteSlack widens the risk window used for quoting and node selection
// to [start-slack, start+duration). A failure shortly *before* a job's
// start knocks its nodes down for the restart time and slips the start, so
// quoting over the widened window makes the promise honest about that
// hazard. The simulator sets the slack to the node downtime. Defaults to 0.
func WithQuoteSlack(d units.Duration) Option {
	return optionFunc(func(s *Scheduler) { s.quoteSlack = d })
}

// Scheduler owns the availability profile and performs conservative
// backfilling: jobs get the earliest reservation that does not disturb any
// existing reservation, which implicitly backfills small jobs around the
// head of the queue.
type Scheduler struct {
	n             int
	profile       *profile
	predictor     predict.Predictor
	reservations  map[int]*Reservation
	faultAware    bool
	maxCandidates int
	quoteSlack    units.Duration

	// Scratch buffers reused across EarliestCandidate queries. The
	// scheduler is single-threaded by design (the simulator and qosd both
	// serialize access), so per-call allocation here is pure overhead: a
	// quote runs once per arrival and scores every free node.
	freeScratch   []int
	scoredScratch []scoredNode
	riskScratch   []float64
	gaps          gapCursors
	// seen marks nodes while Reserve checks an unsorted node set for
	// repeats; all false between calls, allocated on first need.
	seen []bool

	// resFree recycles Reservation records (and their node slices) released
	// by Release/CompleteEarly. Reservations churn once per admit and once
	// per failure restart, so without recycling they are the simulator's
	// largest allocation source. A recycled record is only handed out again
	// after its owner released it, by which point the engine no longer reads
	// the old node set.
	resFree []*Reservation
}

// scoredNode pairs a node with its predicted window risk during selection.
type scoredNode struct {
	node int
	risk float64
}

// New creates a scheduler for a cluster of n nodes using the predictor for
// fault-aware placement.
func New(n int, p predict.Predictor, opts ...Option) *Scheduler {
	if n <= 0 {
		panic(fmt.Sprintf("sched: need a positive node count, got %d", n))
	}
	if p == nil {
		p = predict.Null{}
	}
	s := &Scheduler{
		n:             n,
		profile:       newProfile(n),
		predictor:     p,
		reservations:  make(map[int]*Reservation),
		faultAware:    true,
		maxCandidates: 512,
	}
	for _, o := range opts {
		o.apply(s)
	}
	return s
}

// Predictor returns the predictor that prices the scheduler's candidates.
func (s *Scheduler) Predictor() predict.Predictor { return s.predictor }

// QuoteSlack returns how far before a candidate's start its risk window
// opens (see WithQuoteSlack).
func (s *Scheduler) QuoteSlack() units.Duration { return s.quoteSlack }

// EarliestCandidate returns the first schedulable option at or after from:
// the earliest start in {from} ∪ {profile interval ends after from} at which
// size nodes are free for duration, with the risk-minimizing node set there
// (first fit when fault-awareness is off). Only the first maxCandidates of
// those starts are considered; past that budget the answer is the last
// interval end, after which the whole machine is free. The second return is
// false only for invalid requests.
//
// The query reuses scheduler-owned scratch buffers and is not reentrant.
func (s *Scheduler) EarliestCandidate(from units.Time, size int, duration units.Duration) (Candidate, bool) {
	if size <= 0 || size > s.n || duration <= 0 {
		return Candidate{}, false
	}
	start, free := s.earliestFit(from, size, duration)
	if free == nil {
		// Past the budget: every node is free after the last interval end.
		start = s.profile.lastEnd(from)
		free = s.freeScratch[:0]
		for n := 0; n < s.n; n++ {
			free = append(free, n)
		}
		s.freeScratch = free
	}
	nodes := s.selectNodes(free, start, size, duration)
	pf := s.predictor.PFail(nodes, start.Add(-s.quoteSlack), start.Add(duration))
	return Candidate{Start: start, Nodes: nodes, PFail: pf}, true
}

// selectNodes chooses size of the free nodes (ascending IDs, at least size
// of them) for [start, start+duration). With fault-awareness on, nodes with
// no predicted failure in the window come first, then nodes whose first
// detectable failure has the smallest reported probability; ties break on
// node ID for determinism.
func (s *Scheduler) selectNodes(free []int, start units.Time, size int, duration units.Duration) []int {
	end := start.Add(duration)
	riskFrom := start.Add(-s.quoteSlack)
	if !s.faultAware {
		return append([]int(nil), free[:size]...)
	}
	// Batched scoring: one predictor call prices every free node over the
	// window (one pass over the trace index) instead of one call per node.
	risks := s.predictor.AppendPFailNodes(s.riskScratch[:0], free, riskFrom, end)
	s.riskScratch = risks
	// A quote window holds a handful of failures, so usually size of the
	// free nodes carry no risk. Under the total (risk, node) order those
	// come first, lowest IDs first: the heap below would pick the first
	// size of them in free's ascending order.
	zero := 0
	for _, r := range risks {
		if r <= 0 {
			zero++
		}
	}
	if zero >= size {
		nodes := make([]int, 0, size)
		for i, n := range free {
			if risks[i] <= 0 {
				if nodes = append(nodes, n); len(nodes) == size {
					break
				}
			}
		}
		return nodes
	}
	return s.lowestRisk(free, risks, size)
}

// lowestRisk returns, ascending, the size free nodes first under the
// (risk, node) order, where risks[i] prices free[i].
func (s *Scheduler) lowestRisk(free []int, risks []float64, size int) []int {
	// Partial selection: only the size lowest-risk nodes are wanted, so a
	// bounded max-heap (O(free · log size)) replaces sorting every free
	// node. (risk, node) is a total order, so the selected set — and hence
	// the returned candidate — is identical to what the full sort chose.
	heap := s.scoredScratch[:0]
	for i, n := range free {
		cand := scoredNode{node: n, risk: risks[i]}
		if len(heap) < size {
			heap = append(heap, cand)
			heapSiftUp(heap, len(heap)-1)
		} else if scoredLess(cand, heap[0]) {
			heap[0] = cand
			heapSiftDown(heap, 0)
		}
	}
	s.scoredScratch = heap
	nodes := make([]int, size)
	for i, sc := range heap {
		nodes[i] = sc.node
	}
	sort.Ints(nodes)
	return nodes
}

// scoredLess orders node selection: nodes with no predicted failure first,
// then the smallest reported probability, ties broken on node ID for
// determinism.
func scoredLess(a, b scoredNode) bool {
	//qoslint:allow floateq comparator tie-break; an epsilon here would break ordering transitivity and determinism
	if a.risk != b.risk {
		return a.risk < b.risk
	}
	return a.node < b.node
}

// heapSiftUp restores the max-heap property (under scoredLess) after
// appending at index i.
func heapSiftUp(h []scoredNode, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !scoredLess(h[parent], h[i]) {
			return
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

// heapSiftDown restores the max-heap property after replacing the root.
func heapSiftDown(h []scoredNode, i int) {
	for {
		largest := i
		if l := 2*i + 1; l < len(h) && scoredLess(h[largest], h[l]) {
			largest = l
		}
		if r := 2*i + 2; r < len(h) && scoredLess(h[largest], h[r]) {
			largest = r
		}
		if largest == i {
			return
		}
		h[i], h[largest] = h[largest], h[i]
		i = largest
	}
}

// Reserve commits a candidate for a job, inserting its busy intervals into
// the profile. It returns the created reservation, or an error if the job
// already holds one, the candidate lists a node twice or one outside the
// cluster, or its nodes are no longer free.
func (s *Scheduler) Reserve(jobID int, c Candidate, duration units.Duration) (*Reservation, error) {
	if _, ok := s.reservations[jobID]; ok {
		return nil, fmt.Errorf("sched: job %d already holds a reservation", jobID)
	}
	if err := s.checkNodes(c.Nodes); err != nil {
		return nil, fmt.Errorf("sched: job %d: %w", jobID, err)
	}
	end := c.Start.Add(duration)
	for _, n := range c.Nodes {
		if !s.profile.freeDuring(n, c.Start, end) {
			return nil, fmt.Errorf("sched: node %d is no longer free at %v for job %d", n, c.Start, jobID)
		}
	}
	r := s.getReservation()
	r.JobID = jobID
	r.Start = c.Start
	r.Duration = duration
	r.Nodes = append(r.Nodes[:0], c.Nodes...)
	r.PFail = c.PFail
	// Every node's interval shares the reservation's end: count it once.
	placed := 0
	for _, n := range r.Nodes {
		if s.profile.place(n, interval{start: r.Start, end: r.End(), owner: jobID}) {
			placed++
		}
	}
	s.profile.ends.addN(r.End(), placed)
	s.reservations[jobID] = r
	return r, nil
}

// checkNodes rejects a node set that repeats a node or names one outside
// [0, n): every free check would pass for a repeat, which would then get
// two overlapping intervals of one job. Candidates come ascending, which
// costs one comparison per node; any other order is checked against the
// scheduler's seen marks.
func (s *Scheduler) checkNodes(nodes []int) error {
	for i := 1; i < len(nodes); i++ {
		if nodes[i] <= nodes[i-1] {
			return s.checkUnsortedNodes(nodes)
		}
	}
	if k := len(nodes); k > 0 {
		if nodes[0] < 0 {
			return fmt.Errorf("node %d outside [0,%d)", nodes[0], s.n)
		}
		if nodes[k-1] >= s.n {
			return fmt.Errorf("node %d outside [0,%d)", nodes[k-1], s.n)
		}
	}
	return nil
}

func (s *Scheduler) checkUnsortedNodes(nodes []int) error {
	if s.seen == nil {
		s.seen = make([]bool, s.n)
	}
	var err error
	marked := 0
	for _, n := range nodes {
		if n < 0 || n >= s.n {
			err = fmt.Errorf("node %d outside [0,%d)", n, s.n)
			break
		}
		if s.seen[n] {
			err = fmt.Errorf("node %d listed twice", n)
			break
		}
		s.seen[n] = true
		marked++
	}
	for _, n := range nodes[:marked] {
		s.seen[n] = false
	}
	return err
}

// getReservation hands out a recycled Reservation (node slice capacity and
// all) or a fresh one. Callers must overwrite every field.
func (s *Scheduler) getReservation() *Reservation {
	if n := len(s.resFree); n > 0 {
		r := s.resFree[n-1]
		s.resFree = s.resFree[:n-1]
		return r
	}
	return &Reservation{}
}

// Reservation returns the job's current reservation, if any.
func (s *Scheduler) Reservation(jobID int) (*Reservation, bool) {
	r, ok := s.reservations[jobID]
	return r, ok
}

// Release drops the job's reservation entirely (job failed or was
// cancelled); its profile intervals are removed so later jobs can use the
// space. If at falls inside the reservation, the interval up to at is kept
// implicitly free because the past does not matter for scheduling.
func (s *Scheduler) Release(jobID int) {
	r, ok := s.reservations[jobID]
	if !ok {
		return
	}
	removed := 0
	for _, n := range r.Nodes {
		removed += s.profile.removeOwner(n, jobID)
	}
	s.profile.ends.removeN(r.End(), removed)
	delete(s.reservations, jobID)
	s.resFree = append(s.resFree, r)
}

// CompleteEarly truncates the job's reservation at the actual completion
// instant (jobs that skip checkpoints finish before their reserved end) and
// forgets the reservation.
func (s *Scheduler) CompleteEarly(jobID int, at units.Time) {
	r, ok := s.reservations[jobID]
	if !ok {
		return
	}
	// The counts cover only the intervals still listed: a node whose
	// interval gc already dropped (its end uncounted with it) adds nothing.
	removed, cut := 0, 0
	for _, n := range r.Nodes {
		rm, c := s.profile.truncateOwner(n, jobID, at)
		removed += rm
		cut += c
	}
	s.profile.ends.removeN(r.End(), removed+cut)
	s.profile.ends.addN(at, cut)
	delete(s.reservations, jobID)
	s.resFree = append(s.resFree, r)
}

// Slip moves the job's reservation to a later start (its nodes were down at
// start time). Following the paper there is no re-optimization: the node
// set is kept, the interval just shifts.
func (s *Scheduler) Slip(jobID int, newStart units.Time) error {
	r, ok := s.reservations[jobID]
	if !ok {
		return fmt.Errorf("sched: job %d holds no reservation to slip", jobID)
	}
	for _, n := range r.Nodes {
		s.profile.shiftOwner(n, jobID, newStart)
	}
	r.Start = newStart
	return nil
}

// AddDowntime records a node outage in the profile so no new reservation is
// placed on the node while it is down.
func (s *Scheduler) AddDowntime(node int, from, to units.Time) {
	s.profile.insert(node, interval{start: from, end: to, owner: DowntimeOwner})
}

// BusyUntil returns when the node next becomes free according to the
// profile, starting from at.
func (s *Scheduler) BusyUntil(node int, at units.Time) units.Time {
	return s.profile.busyUntil(node, at)
}

// GC discards profile history that ended at or before now. Call it
// periodically from the simulation loop.
func (s *Scheduler) GC(now units.Time) { s.profile.gc(now) }

// ValidateProfile checks internal invariants (no overlapping job
// reservations on any node). Tests and the simulator's debug mode use it.
func (s *Scheduler) ValidateProfile() error { return s.profile.validate() }
