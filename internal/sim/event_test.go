package sim

import (
	"cmp"
	"slices"
	"testing"

	"probqos/internal/failure"
	"probqos/internal/stats"
	"probqos/internal/units"
	"probqos/internal/workload"
)

// newEventQueue returns a queue over the log and trace.
func newEventQueue(jobs []workload.Job, failures *failure.Trace) eventQueue {
	var q eventQueue
	q.reset(jobs, failures)
	return q
}

// emptyQueue is a queue with no arrivals and no trace failures: only pushed
// events.
func emptyQueue(t *testing.T) eventQueue {
	t.Helper()
	tr, err := failure.NewTrace(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return newEventQueue(nil, tr)
}

func TestEventQueueOrdering(t *testing.T) {
	q := emptyQueue(t)
	// Same timestamp, shuffled kinds.
	for _, ev := range []event{
		{time: 100, kind: KindStart},
		{time: 100, kind: KindFailure},
		{time: 100, kind: KindArrival},
		{time: 100, kind: KindFinish},
		{time: 100, kind: KindRecovery},
		{time: 50, kind: KindCheckpointRequest},
		{time: 100, kind: KindCheckpointFinish},
	} {
		q.push(ev)
	}

	var got []Kind
	for q.len() > 0 {
		got = append(got, q.pop().kind)
	}
	want := []Kind{
		KindCheckpointRequest, // earlier time wins regardless of kind
		KindFailure, KindRecovery, KindFinish, KindCheckpointFinish,
		KindArrival, KindStart,
	}
	if !slices.Equal(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

func TestEventQueueSeqBreaksTies(t *testing.T) {
	q := emptyQueue(t)
	q.push(event{time: 10, kind: KindArrival, slot: 1})
	q.push(event{time: 10, kind: KindArrival, slot: 2})
	if first := q.pop(); first.slot != 1 {
		t.Errorf("insertion order not respected: slot %d first", first.slot)
	}

	// Across sources: a trace failure was numbered before any pushed event,
	// so it dispatches ahead of an injected failure at the same instant.
	tr, err := failure.NewTrace(4, []failure.Event{{Time: 10, Node: 3}})
	if err != nil {
		t.Fatal(err)
	}
	q = newEventQueue(nil, tr)
	q.push(event{time: 10, kind: KindFailure, node: 1})
	if first := q.pop(); first.node != 3 {
		t.Errorf("injected failure on node %d dispatched before the trace failure", first.node)
	}
}

// TestEventQueueMatchesSortedOrder is the queue's differential test: over
// random logs (sorted by arrival, as Config.validate requires, with tied
// arrival times) and random traces, interleave pushes of every kind at tied
// times with pops. A push never sorts before the last pop, so the events
// come out in one sorted run. Every pop must be the least
// pending event, and the whole pop sequence must equal a sort of every
// event by (time, kind, seq), with arrivals numbered by log index, trace
// failures after them, and pushes after those.
func TestEventQueueMatchesSortedOrder(t *testing.T) {
	kinds := []Kind{
		KindFailure, KindRecovery, KindFinish, KindCheckpointFinish,
		KindArrival, KindStart, KindCheckpointRequest,
	}
	for seed := int64(1); seed <= 200; seed++ {
		src := stats.NewSource(seed)
		jobs := make([]workload.Job, src.Intn(40))
		for i := range jobs {
			jobs[i] = workload.Job{ID: 100 + i, Arrival: units.Time(src.Intn(50)), Nodes: 1, Exec: 1}
		}
		slices.SortStableFunc(jobs, func(a, b workload.Job) int { return cmp.Compare(a.Arrival, b.Arrival) })
		fevs := make([]failure.Event, src.Intn(40))
		for i := range fevs {
			fevs[i] = failure.Event{Time: units.Time(src.Intn(50)), Node: src.Intn(4)}
		}
		tr, err := failure.NewTrace(4, fevs)
		if err != nil {
			t.Fatal(err)
		}

		var all []event
		for i, j := range jobs {
			all = append(all, event{time: j.Arrival, seq: int64(i), kind: KindArrival, slot: i})
		}
		for i := 0; i < tr.Len(); i++ {
			f := tr.At(i)
			all = append(all, event{time: f.Time, seq: int64(len(jobs) + i), kind: KindFailure, node: f.Node})
		}
		pending := slices.Clone(all)

		q := newEventQueue(jobs, tr)
		if q.len() != len(all) {
			t.Fatalf("seed %d: Len = %d before any pop, want %d", seed, q.len(), len(all))
		}
		nextSeq := int64(len(all))
		var last event // the last pop; pushes sort after it
		var got []event
		for q.len() > 0 || len(got) < len(all) {
			if q.len() == 0 || src.Bool(0.45) {
				ev := event{
					time:  last.time + units.Time(src.Intn(20)),
					kind:  kinds[src.Intn(len(kinds))],
					slot:  src.Intn(1000),
					epoch: src.Intn(3),
					node:  src.Intn(4),
				}
				if ev.time == last.time {
					ev.kind = max(ev.kind, last.kind)
				}
				q.push(ev)
				ev.seq = nextSeq
				nextSeq++
				all = append(all, ev)
				pending = append(pending, ev)
				continue
			}
			least := 0
			for i := range pending {
				if pending[i].before(&pending[least]) {
					least = i
				}
			}
			ev := q.pop()
			if ev != pending[least] {
				t.Fatalf("seed %d: pop %d = %+v, want %+v", seed, len(got), ev, pending[least])
			}
			pending = slices.Delete(pending, least, least+1)
			if q.len() != len(pending) {
				t.Fatalf("seed %d: Len = %d, want %d", seed, q.len(), len(pending))
			}
			last = ev
			got = append(got, ev)
		}
		slices.SortFunc(all, func(a, b event) int {
			if a.before(&b) {
				return -1
			}
			if b.before(&a) {
				return 1
			}
			return 0
		})
		if !slices.Equal(got, all) {
			t.Fatalf("seed %d: pop sequence differs from the sorted events", seed)
		}
	}
}

// TestEngineRefusesLogOutOfArrivalOrder pins the contract the arrival
// cursor relies on: Run and NewEngine both refuse a log whose arrivals go
// backwards, so the queue never sees one.
func TestEngineRefusesLogOutOfArrivalOrder(t *testing.T) {
	jobs := []workload.Job{
		{ID: 1, Arrival: 30, Nodes: 1, Exec: 100},
		{ID: 2, Arrival: 10, Nodes: 1, Exec: 100},
	}
	const want = "workload: job 2 arrives before its predecessor"
	if _, err := Run(smallConfig(t, jobs, nil)); err == nil || err.Error() != want {
		t.Errorf("Run = %v, want %q", err, want)
	}
	if _, err := NewEngine(smallConfig(t, jobs, nil)); err == nil || err.Error() != want {
		t.Errorf("NewEngine = %v, want %q", err, want)
	}
}

// TestNewEngineCountsSourcedEvents pins Stats().PendingEvents before the
// first advance: every arrival and every trace failure is pending although
// none was pushed, and the count falls to zero once the run drains.
func TestNewEngineCountsSourcedEvents(t *testing.T) {
	jobs := []workload.Job{
		{ID: 1, Arrival: 0, Nodes: 4, Exec: 600},
		{ID: 2, Arrival: 100, Nodes: 8, Exec: 300},
		{ID: 3, Arrival: 100, Nodes: 2, Exec: 900},
	}
	events := []failure.Event{
		{Time: 50, Node: 2, Detectability: 0.3},
		{Time: 5000, Node: 5, Detectability: 0.9},
	}
	e, err := NewEngine(smallConfig(t, jobs, events))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := e.Stats().PendingEvents, len(jobs)+len(events); got != want {
		t.Errorf("PendingEvents before the first advance = %d, want %d", got, want)
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().PendingEvents; got != 0 {
		t.Errorf("PendingEvents after Drain = %d, want 0", got)
	}
}

// BenchmarkEventQueue measures the pushed-event heap in steady state: each
// iteration pops the least event and pushes its successor a little later,
// as the engine does when a dispatch schedules the job's next milestone.
// The heap holds 128 events, the scale of a Figure-1 run; it must not
// allocate.
func BenchmarkEventQueue(b *testing.B) {
	tr, err := failure.NewTrace(1, nil)
	if err != nil {
		b.Fatal(err)
	}
	q := newEventQueue(nil, tr)
	kinds := []Kind{KindStart, KindFinish, KindCheckpointRequest, KindCheckpointFinish, KindRecovery}
	for i := 0; i < 128; i++ {
		q.push(event{time: units.Time(i * 37 % 500), kind: kinds[i%len(kinds)], slot: i})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := q.pop()
		ev.time += units.Time(1 + i%613)
		ev.kind = kinds[i%len(kinds)]
		q.push(ev)
	}
}
