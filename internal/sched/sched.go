package sched

import (
	"fmt"
	"slices"

	"probqos/internal/predict"
	"probqos/internal/units"
)

// Candidate is one schedulable option for a job: a start time, a concrete
// node set, and the predicted probability that this partition fails during
// the reservation window. The negotiation layer walks successive candidates
// quoting (deadline, probability) pairs to the user.
//
// The Nodes of a candidate from EarliestCandidate live in scheduler
// scratch and are valid only until the scheduler's next query: whoever
// keeps them (a quote handed to a client, a committed reservation) copies
// them first.
type Candidate struct {
	Start units.Time `json:"start"`
	Nodes []int      `json:"nodes"`
	PFail float64    `json:"pfail"`
}

// Reservation records a job's committed placement. Reserve returns it and
// the caller holds it: Release, CompleteEarly and Slip act on the
// reservation they are handed, and only Slip moves its start.
type Reservation struct {
	JobID    int
	Start    units.Time
	Duration units.Duration
	// Nodes is the committed candidate's node slice, shared with that
	// candidate and with every copy of the reservation: read-only. Reserve
	// does not copy it, so a candidate straight from EarliestCandidate
	// must have its nodes copied before it is reserved and kept.
	Nodes []int
}

// End returns the reserved end instant.
func (r Reservation) End() units.Time { return r.Start.Add(r.Duration) }

// candidateBudget bounds how many candidate start times a single
// EarliestCandidate query considers before falling back to the last
// interval end.
const candidateBudget = 512

// Scheduler owns the availability profile and performs conservative
// backfilling: jobs get the earliest reservation that does not disturb any
// existing reservation, which implicitly backfills small jobs around the
// head of the queue. It holds no per-job state: the profile keys each busy
// interval by its owner, and the caller keeps the Reservation.
type Scheduler struct {
	n         int
	profile   *profile
	predictor predict.Predictor
	// faultAware toggles prediction-driven node selection; without it the
	// scheduler picks the lowest-numbered free nodes (first fit), the
	// non-fault-aware baseline.
	faultAware bool
	// quoteSlack widens the risk window used for quoting and node
	// selection to [start-slack, start+duration). A failure shortly
	// *before* a job's start knocks its nodes down for the restart time
	// and slips the start, so quoting over the widened window makes the
	// promise honest about that hazard. The simulator sets it to the node
	// downtime.
	quoteSlack units.Duration
	// maxCandidates is candidateBudget; the package's tests lower it to
	// force the fallback.
	maxCandidates int

	// Scratch buffers reused across EarliestCandidate queries. The
	// scheduler is single-threaded by design (the simulator and qosd both
	// serialize access), so per-call allocation here is pure overhead: a
	// quote runs once per arrival and scores every free node.
	freeScratch   []int
	picked        []int // the last candidate's nodes (Candidate.Nodes)
	scoredScratch []scoredNode
	riskScratch   []float64
	gaps          gapCursors
	// seen marks nodes while Reserve checks an unsorted node set for
	// repeats; all false between calls, grown on first need.
	seen []bool
}

// scoredNode pairs a node with its predicted window risk during selection.
type scoredNode struct {
	node int
	risk float64
}

// New creates a scheduler for a cluster of n nodes using the predictor for
// placement (see Scheduler for faultAware and quoteSlack).
func New(n int, p predict.Predictor, faultAware bool, quoteSlack units.Duration) *Scheduler {
	s := new(Scheduler)
	s.Reset(n, p, faultAware, quoteSlack)
	return s
}

// Reset empties the scheduler and sets it up as New(n, p, faultAware,
// quoteSlack) would, keeping the memory its profile and scratch buffers
// have grown: a batch simulator reuses one scheduler across runs.
func (s *Scheduler) Reset(n int, p predict.Predictor, faultAware bool, quoteSlack units.Duration) {
	if n <= 0 {
		panic(fmt.Sprintf("sched: need a positive node count, got %d", n))
	}
	if p == nil {
		p = predict.Null{}
	}
	if s.profile == nil {
		s.profile = new(profile)
	}
	s.profile.reset(n)
	s.n = n
	s.predictor = p
	s.faultAware = faultAware
	s.quoteSlack = quoteSlack
	s.maxCandidates = candidateBudget
}

// Predictor returns the predictor that prices the scheduler's candidates.
func (s *Scheduler) Predictor() predict.Predictor { return s.predictor }

// QuoteSlack returns how far before a candidate's start its risk window
// opens.
func (s *Scheduler) QuoteSlack() units.Duration { return s.quoteSlack }

// EarliestCandidate returns the first schedulable option at or after from:
// the earliest start in {from} ∪ {profile interval ends after from} at which
// size nodes are free for duration, with the risk-minimizing node set there
// (first fit when fault-awareness is off). Only the first maxCandidates of
// those starts are considered; past that budget the answer is the last
// interval end, after which the whole machine is free. The second return is
// false only for invalid requests.
//
// The query reuses scheduler-owned scratch buffers and is not reentrant;
// the candidate's Nodes are valid until the next query (see Candidate).
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
// of them) for [start, start+duration), into the picked scratch. With
// fault-awareness on, nodes with no predicted failure in the window come
// first, then nodes whose first detectable failure has the smallest
// reported probability; ties break on node ID for determinism.
func (s *Scheduler) selectNodes(free []int, start units.Time, size int, duration units.Duration) []int {
	end := start.Add(duration)
	riskFrom := start.Add(-s.quoteSlack)
	if !s.faultAware {
		s.picked = append(s.picked[:0], free[:size]...)
		return s.picked
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
		nodes := s.picked[:0]
		for i, n := range free {
			if risks[i] <= 0 {
				if nodes = append(nodes, n); len(nodes) == size {
					break
				}
			}
		}
		s.picked = nodes
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
	nodes := s.picked[:0]
	for _, sc := range heap {
		nodes = append(nodes, sc.node)
	}
	slices.Sort(nodes)
	s.picked = nodes
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
// the profile, and returns the reservation the caller holds from then on.
// It fails if the candidate lists a node twice or one outside the cluster,
// or its nodes are no longer free. It does not check the job ID: the
// caller gives each job one live reservation. The reservation keeps
// c.Nodes itself, not a copy: the caller must not write to that slice
// afterwards, and copies a candidate's scratch nodes before reserving it.
func (s *Scheduler) Reserve(jobID int, c Candidate, duration units.Duration) (Reservation, error) {
	if err := s.checkNodes(c.Nodes); err != nil {
		return Reservation{}, fmt.Errorf("sched: job %d: %w", jobID, err)
	}
	end := c.Start.Add(duration)
	for _, n := range c.Nodes {
		if !s.profile.freeDuring(n, c.Start, end) {
			return Reservation{}, fmt.Errorf("sched: node %d is no longer free at %v for job %d", n, c.Start, jobID)
		}
	}
	// Every node's interval shares the reservation's end: count it once.
	placed := 0
	for _, n := range c.Nodes {
		if s.profile.place(n, interval{start: c.Start, end: end, owner: jobID}) {
			placed++
		}
	}
	s.profile.ends.addN(end, placed)
	return Reservation{JobID: jobID, Start: c.Start, Duration: duration, Nodes: c.Nodes}, nil
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
	if len(s.seen) < s.n {
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

// Release drops the reservation entirely (job failed or was cancelled);
// its profile intervals are removed so later jobs can use the space.
// Releasing a reservation that holds no intervals any more is a no-op.
func (s *Scheduler) Release(r Reservation) {
	removed := 0
	for _, n := range r.Nodes {
		removed += s.profile.removeOwner(n, r.JobID)
	}
	s.profile.ends.removeN(r.End(), removed)
}

// CompleteEarly truncates the reservation at the actual completion instant
// (jobs that skip checkpoints finish before their reserved end). The
// profile then holds nothing of it past at.
func (s *Scheduler) CompleteEarly(r Reservation, at units.Time) {
	// The counts cover only the intervals still listed: a node whose
	// interval gc already dropped (its end uncounted with it) adds nothing.
	removed, cut := 0, 0
	for _, n := range r.Nodes {
		rm, c := s.profile.truncateOwner(n, r.JobID, at)
		removed += rm
		cut += c
	}
	s.profile.ends.removeN(r.End(), removed+cut)
	s.profile.ends.addN(at, cut)
}

// Slip moves the reservation to a later start (its nodes were down at
// start time) and writes the new start into *r. Following the paper there
// is no re-optimization: the node set is kept, the interval just shifts.
func (s *Scheduler) Slip(r *Reservation, newStart units.Time) {
	for _, n := range r.Nodes {
		s.profile.shiftOwner(n, r.JobID, newStart)
	}
	r.Start = newStart
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

// ValidateProfile checks the profile's invariants: its end index counts
// exactly the listed intervals' ends, and no node holds overlapping job
// reservations. Tests use it.
func (s *Scheduler) ValidateProfile() error { return s.profile.validate() }

// ValidateEnds checks only the end index, which holds after every
// operation; a Slip may legitimately overlap the next reservation, so the
// overlap check does not. Tests use it after every engine step.
func (s *Scheduler) ValidateEnds() error { return s.profile.validateEnds() }
