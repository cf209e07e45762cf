package sched

import (
	"testing"

	"probqos/internal/failure"
	"probqos/internal/predict"
	"probqos/internal/units"
)

func newPredictor(t *testing.T, a float64, events ...failure.Event) *predict.Trace {
	t.Helper()
	tr, err := failure.NewTrace(8, events)
	if err != nil {
		t.Fatal(err)
	}
	p, err := predict.NewTrace(tr, a)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEarliestCandidateOnEmptyCluster(t *testing.T) {
	s := New(8, nil)
	c, ok := s.EarliestCandidate(100, 4, 50)
	if !ok {
		t.Fatal("expected a candidate")
	}
	if c.Start != 100 {
		t.Errorf("start = %v, want 100 (immediate)", c.Start)
	}
	if len(c.Nodes) != 4 {
		t.Errorf("nodes = %v", c.Nodes)
	}
	if c.PFail != 0 {
		t.Errorf("pfail = %v, want 0 for null predictor", c.PFail)
	}
}

func TestCandidatesRejectsBadRequests(t *testing.T) {
	s := New(8, nil)
	for _, tt := range []struct {
		name string
		size int
		dur  units.Duration
	}{
		{name: "zero size", size: 0, dur: 10},
		{name: "too large", size: 9, dur: 10},
		{name: "zero duration", size: 1, dur: 0},
	} {
		t.Run(tt.name, func(t *testing.T) {
			if got := s.Candidates(0, tt.size, tt.dur, func(Candidate) bool { return true }); got != 0 {
				t.Errorf("Candidates yielded %d options", got)
			}
			if c, ok := s.EarliestCandidate(0, tt.size, tt.dur); ok {
				t.Errorf("EarliestCandidate = %+v, want a rejection", c)
			}
		})
	}
}

func TestReserveBlocksOverlap(t *testing.T) {
	s := New(4, nil)
	c, _ := s.EarliestCandidate(0, 4, 100)
	if err := s.Reserve(1, c, 100); err != nil {
		t.Fatal(err)
	}
	// The whole machine is taken; the next job must start at 100.
	c2, ok := s.EarliestCandidate(0, 2, 50)
	if !ok {
		t.Fatal("expected a candidate")
	}
	if c2.Start != 100 {
		t.Errorf("second job start = %v, want 100", c2.Start)
	}
	if err := s.ValidateProfile(); err != nil {
		t.Error(err)
	}
}

func TestReserveErrors(t *testing.T) {
	s := New(4, nil)
	c, _ := s.EarliestCandidate(0, 2, 100)
	if err := s.Reserve(1, c, 100); err != nil {
		t.Fatal(err)
	}
	if err := s.Reserve(1, c, 100); err == nil {
		t.Error("double reservation for one job must fail")
	}
	if err := s.Reserve(2, c, 100); err == nil {
		t.Error("reserving occupied nodes must fail")
	}
}

// TestReserveRejectsBadNodeSets pins Reserve's node-set check: a repeated
// node would pass every free check and get two overlapping intervals of one
// job, and a node outside the cluster would index past the profile. A
// rejected set leaves the profile untouched, and valid sets in any order
// are accepted.
func TestReserveRejectsBadNodeSets(t *testing.T) {
	for _, tt := range []struct {
		name  string
		nodes []int
		ok    bool
	}{
		{name: "ascending", nodes: []int{0, 2, 3}, ok: true},
		{name: "unsorted", nodes: []int{3, 0, 2}, ok: true},
		{name: "single", nodes: []int{7}, ok: true},
		{name: "adjacent repeat", nodes: []int{1, 1, 2}},
		{name: "unsorted repeat", nodes: []int{2, 0, 2}},
		{name: "all one node", nodes: []int{5, 5, 5, 5}},
		{name: "negative first", nodes: []int{-1, 0, 1}},
		{name: "past the end", nodes: []int{6, 7, 8}},
		{name: "unsorted past the end", nodes: []int{9, 0}},
		{name: "unsorted negative", nodes: []int{3, -2}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			s := New(8, nil)
			err := s.Reserve(1, Candidate{Start: 10, Nodes: tt.nodes}, 100)
			if tt.ok != (err == nil) {
				t.Fatalf("Reserve(%v) error = %v, want ok=%v", tt.nodes, err, tt.ok)
			}
			if err := s.ValidateProfile(); err != nil {
				t.Fatal(err)
			}
			if tt.ok {
				return
			}
			if _, held := s.Reservation(1); held {
				t.Error("rejected candidate left a reservation")
			}
			// The seen marks were cleared: every node is free again, and
			// the same scheduler accepts a valid unsorted set.
			if err := s.Reserve(2, Candidate{Start: 10, Nodes: []int{7, 6, 5, 4, 3, 2, 1, 0}}, 100); err != nil {
				t.Errorf("whole machine after a rejection: %v", err)
			}
		})
	}
}

func TestBackfillingAroundReservation(t *testing.T) {
	s := New(4, nil)
	// Wide job takes the whole machine at [100, 200).
	wide, _ := s.EarliestCandidate(100, 4, 100)
	if err := s.Reserve(1, wide, 100); err != nil {
		t.Fatal(err)
	}
	// A short narrow job fits in the hole before the wide job: backfilled.
	c, ok := s.EarliestCandidate(0, 2, 100)
	if !ok || c.Start != 0 {
		t.Fatalf("backfill candidate = %+v ok=%v, want start 0", c, ok)
	}
	// A narrow job that is too long to finish by 100 must wait until 200.
	c2, ok := s.EarliestCandidate(0, 2, 150)
	if !ok || c2.Start != 200 {
		t.Fatalf("long narrow candidate = %+v ok=%v, want start 200", c2, ok)
	}
}

func TestFaultAwareNodeSelection(t *testing.T) {
	// Node 2 has a highly detectable failure inside the window; node 5 has
	// an invisible one.
	p := newPredictor(t, 0.5,
		failure.Event{Time: 50, Node: 2, Detectability: 0.3},
		failure.Event{Time: 50, Node: 5, Detectability: 0.9},
	)
	s := New(8, p)
	c, ok := s.EarliestCandidate(0, 7, 100)
	if !ok {
		t.Fatal("expected candidate")
	}
	for _, n := range c.Nodes {
		if n == 2 {
			t.Errorf("risky node 2 selected despite alternatives: %v", c.Nodes)
		}
	}
	if c.PFail != 0 {
		t.Errorf("PFail = %v, want 0 after avoiding the detectable failure", c.PFail)
	}

	// Needing all 8 nodes forces the risky one in, and the quote says so.
	c8, ok := s.EarliestCandidate(0, 8, 100)
	if !ok {
		t.Fatal("expected candidate")
	}
	if c8.PFail != 0.3 {
		t.Errorf("PFail = %v, want 0.3 with node 2 included", c8.PFail)
	}
}

func TestFirstFitIgnoresRisk(t *testing.T) {
	p := newPredictor(t, 1,
		failure.Event{Time: 50, Node: 0, Detectability: 0.4},
	)
	s := New(8, p, WithFaultAware(false))
	c, ok := s.EarliestCandidate(0, 2, 100)
	if !ok {
		t.Fatal("expected candidate")
	}
	if c.Nodes[0] != 0 || c.Nodes[1] != 1 {
		t.Errorf("first-fit nodes = %v, want [0 1]", c.Nodes)
	}
	if c.PFail != 0.4 {
		t.Errorf("PFail = %v, want 0.4 (risk reported but not avoided)", c.PFail)
	}
}

func TestCompleteEarlyFreesTail(t *testing.T) {
	s := New(2, nil)
	c, _ := s.EarliestCandidate(0, 2, 1000)
	if err := s.Reserve(1, c, 1000); err != nil {
		t.Fatal(err)
	}
	s.CompleteEarly(1, 400)
	if _, ok := s.Reservation(1); ok {
		t.Error("reservation should be forgotten")
	}
	c2, ok := s.EarliestCandidate(0, 2, 100)
	if !ok || c2.Start != 400 {
		t.Fatalf("candidate after early completion = %+v, want start 400", c2)
	}
}

func TestReleaseFreesEverything(t *testing.T) {
	s := New(2, nil)
	c, _ := s.EarliestCandidate(100, 2, 1000)
	if err := s.Reserve(1, c, 1000); err != nil {
		t.Fatal(err)
	}
	s.Release(1)
	c2, ok := s.EarliestCandidate(0, 2, 100)
	if !ok || c2.Start != 0 {
		t.Fatalf("candidate after release = %+v, want start 0", c2)
	}
	// Releasing twice is a no-op.
	s.Release(1)
}

func TestSlipMovesReservation(t *testing.T) {
	s := New(2, nil)
	c, _ := s.EarliestCandidate(100, 2, 100)
	if err := s.Reserve(1, c, 100); err != nil {
		t.Fatal(err)
	}
	if err := s.Slip(1, 150); err != nil {
		t.Fatal(err)
	}
	if r, _ := s.Reservation(1); r.Start != 150 || r.End() != 250 {
		t.Errorf("slipped reservation = [%v, %v)", r.Start, r.End())
	}
	// The vacated window opens up; the shifted window is busy.
	if got, _ := s.EarliestCandidate(100, 2, 50); got.Start != 100 {
		t.Errorf("vacated slot start = %v, want 100", got.Start)
	}
	if got, _ := s.EarliestCandidate(150, 2, 50); got.Start != 250 {
		t.Errorf("post-slip slot start = %v, want 250", got.Start)
	}
	if err := s.Slip(99, 0); err == nil {
		t.Error("slipping an unknown job must fail")
	}
}

// TestReservationIsASnapshot pins the value semantics of Reservation: a
// returned copy does not move the held reservation when edited, and a Slip
// shows only on a fresh read.
func TestReservationIsASnapshot(t *testing.T) {
	s := New(2, nil)
	c, _ := s.EarliestCandidate(100, 2, 100)
	if err := s.Reserve(1, c, 100); err != nil {
		t.Fatal(err)
	}
	r, _ := s.Reservation(1)
	r.Start = 500
	if got, _ := s.Reservation(1); got.Start != 100 {
		t.Errorf("editing a copy moved the reservation to %v", got.Start)
	}
	if got, _ := s.EarliestCandidate(100, 2, 50); got.Start != 200 {
		t.Errorf("editing a copy changed the profile: next start %v, want 200", got.Start)
	}
	if err := s.Slip(1, 150); err != nil {
		t.Fatal(err)
	}
	if r.Start != 500 {
		t.Errorf("Slip reached into an earlier copy: start %v", r.Start)
	}
	if got, _ := s.Reservation(1); got.Start != 150 || got.End() != 250 {
		t.Errorf("re-read after Slip = [%v, %v), want [150, 250)", got.Start, got.End())
	}
}

func TestAddDowntimeBlocksScheduling(t *testing.T) {
	s := New(2, nil)
	s.AddDowntime(0, 0, 500)
	c, ok := s.EarliestCandidate(0, 2, 100)
	if !ok || c.Start != 500 {
		t.Fatalf("candidate with node down = %+v, want start 500", c)
	}
	// A one-node job can use the healthy node immediately.
	c1, _ := s.EarliestCandidate(0, 1, 100)
	if c1.Start != 0 || c1.Nodes[0] != 1 {
		t.Errorf("one-node candidate = %+v", c1)
	}
	if got := s.BusyUntil(0, 100); got != 500 {
		t.Errorf("BusyUntil = %v, want 500", got)
	}
}

func TestCandidateBudgetFallback(t *testing.T) {
	s := New(2, nil, WithMaxCandidates(2))
	// Stack many short reservations so the walk exhausts its budget.
	at := units.Time(0)
	for job := 1; job <= 10; job++ {
		c, ok := s.EarliestCandidate(at, 2, 100)
		if !ok {
			t.Fatal("expected candidate")
		}
		if err := s.Reserve(job, c, 100); err != nil {
			t.Fatal(err)
		}
		at = c.Start
	}
	// Despite the tiny budget, a feasible candidate must still be found at
	// the horizon (after the last reservation).
	c, ok := s.EarliestCandidate(0, 2, 100)
	if !ok {
		t.Fatal("budget fallback failed to produce a candidate")
	}
	if c.Start != 1000 {
		t.Errorf("fallback start = %v, want 1000", c.Start)
	}
}

func TestGCKeepsFutureReservations(t *testing.T) {
	s := New(2, nil)
	c, _ := s.EarliestCandidate(1000, 2, 100)
	if err := s.Reserve(1, c, 100); err != nil {
		t.Fatal(err)
	}
	s.GC(500)
	if got, _ := s.EarliestCandidate(1000, 2, 100); got.Start != 1100 {
		t.Errorf("reservation lost by GC: candidate start = %v", got.Start)
	}
}

func TestNewPanicsOnBadClusterSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(0, nil)
}
