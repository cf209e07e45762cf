package sim

import (
	"probqos/internal/failure"
	"probqos/internal/units"
	"probqos/internal/workload"
)

// Kind enumerates the seven event types of §4.1.
type Kind int

// Event kinds, in the order they are processed when timestamps tie:
// failures and recoveries first (the machine's state changes before any
// scheduling decision at the same instant), then completions (freeing
// resources), then arrivals, starts, and checkpoint requests.
const (
	KindFailure Kind = iota + 1
	KindRecovery
	KindFinish
	KindCheckpointFinish
	KindArrival
	KindStart
	KindCheckpointRequest
)

var kindNames = map[Kind]string{
	KindFailure:           "failure",
	KindRecovery:          "recovery",
	KindFinish:            "finish",
	KindCheckpointFinish:  "checkpoint-finish",
	KindArrival:           "arrival",
	KindStart:             "start",
	KindCheckpointRequest: "checkpoint-request",
}

func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return "unknown"
}

// event is one entry in the simulation's event queue. Job events carry the
// job's slot in the engine's job table and its attempt epoch, so that
// events scheduled for an attempt that has since failed are recognized as
// stale and dropped. An event holds no pointers, so the queue's heap is a
// plain value slice the garbage collector never scans.
type event struct {
	time  units.Time
	seq   int64 // tie-breaker: arrivals and trace failures by log position, then insertion order
	kind  Kind
	slot  int // job events: the job's slot
	epoch int // job events: attempt number the event belongs to
	node  int // failure/recovery events
}

// before reports whether e dispatches ahead of o: by time, then kind, then
// seq.
func (e *event) before(o *event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	if e.kind != o.kind {
		return e.kind < o.kind
	}
	return e.seq < o.seq
}

// eventQueue is the engine's deterministic min-queue over (time, kind,
// seq). It merges three sources. The workload's arrivals (Config.validate
// refuses a log out of arrival order) and the failure trace's failures are
// already sorted, so each is read by a cursor and never copied into the
// queue. Only the events the engine creates as it
// runs — starts, checkpoint requests and finishes, finishes, recoveries,
// and injected failures — go into a binary min-heap, and at most a few
// hundred of those are pending at once.
//
// Arrivals take seq = their log index and trace failures seq = J + their
// trace index, where J is the number of jobs; pushed events are numbered
// from J + F on, F being the number of trace failures. That is the order
// in which a single heap holding everything would have stamped them, so
// the merged dispatch order is the same.
type eventQueue struct {
	jobs    []workload.Job
	nextJob int

	failures *failure.Trace
	nextFail int

	heap []event
	seq  int64 // next pushed event's seq
}

// initialHeapCap sizes the pushed-event heap up front. It covers the peak
// pending count of a Figure-1 run, so a batch run grows it rarely.
const initialHeapCap = 256

// newEventQueue builds the queue over a workload log sorted by arrival
// (which may be empty) and a failure trace. An arrival's slot is its log
// index.
func newEventQueue(jobs []workload.Job, failures *failure.Trace) eventQueue {
	return eventQueue{
		jobs:     jobs,
		failures: failures,
		heap:     make([]event, 0, initialHeapCap),
		seq:      int64(len(jobs) + failures.Len()),
	}
}

// len returns the number of pending events across all three sources.
func (q *eventQueue) len() int {
	return len(q.jobs) - q.nextJob + q.failures.Len() - q.nextFail + len(q.heap)
}

// queueSource names where the least pending event lives.
type queueSource int

const (
	fromNone queueSource = iota
	fromArrivals
	fromFailures
	fromHeap
)

// peek returns the least pending event and its source without removing
// it; the source is fromNone when the queue is empty.
func (q *eventQueue) peek() (event, queueSource) {
	var best event
	src := fromNone
	if q.nextJob < len(q.jobs) {
		i := q.nextJob
		best = event{time: q.jobs[i].Arrival, seq: int64(i), kind: KindArrival, slot: i}
		src = fromArrivals
	}
	if q.nextFail < q.failures.Len() {
		f := q.failures.At(q.nextFail)
		ev := event{time: f.Time, seq: int64(len(q.jobs) + q.nextFail), kind: KindFailure, node: f.Node}
		if src == fromNone || ev.before(&best) {
			best, src = ev, fromFailures
		}
	}
	if len(q.heap) > 0 && (src == fromNone || q.heap[0].before(&best)) {
		best, src = q.heap[0], fromHeap
	}
	return best, src
}

// pop removes and returns the least pending event. The queue must not be
// empty.
func (q *eventQueue) pop() event {
	ev, src := q.peek()
	switch src {
	case fromArrivals:
		q.nextJob++
	case fromFailures:
		q.nextFail++
	case fromHeap:
		q.popHeap()
	}
	return ev
}

// push enqueues an engine-created event, stamping its seq.
func (q *eventQueue) push(ev event) {
	ev.seq = q.seq
	q.seq++
	h := append(q.heap, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	q.heap = h
}

// popHeap removes the heap's minimum.
func (q *eventQueue) popHeap() {
	h := q.heap
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	q.heap = h
}
