package sched

import (
	"testing"
)

// TestEarliestCandidateAllocationBounds pins the scratch-buffer reuse in the
// candidate walk: after warm-up, a full EarliestCandidate against a deep
// backlog allocates nothing — not the free list, the scored-node heap, nor
// the candidate's node set, which lives in scheduler scratch until the
// next query.
func TestEarliestCandidateAllocationBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a failure trace")
	}
	s, _ := benchScheduler(t, 300)
	for _, size := range []int{1, 8, 16} {
		// Warm up so the scratch buffers reach their steady-state capacity.
		for i := 0; i < 3; i++ {
			if _, ok := s.EarliestCandidate(0, size, 3600); !ok {
				t.Fatalf("size %d: no candidate", size)
			}
		}
		avg := testing.AllocsPerRun(100, func() {
			if _, ok := s.EarliestCandidate(0, size, 3600); !ok {
				t.Fatalf("size %d: no candidate", size)
			}
		})
		if avg != 0 {
			t.Errorf("EarliestCandidate(size=%d) allocates %.1f/op, want 0", size, avg)
		}
	}
}

// TestReservationChurnAllocatesNothing pins caller-held reservations:
// Reserve returns a value that keeps the candidate's own node slice, so
// committing, slipping and dropping a prebuilt candidate allocates nothing
// once the profile has grown to its steady-state capacity.
func TestReservationChurnAllocatesNothing(t *testing.T) {
	s := New(16, nil, true, 0)
	c := Candidate{Start: 100, Nodes: []int{0, 3, 5, 9}}
	churn := func() {
		r, err := s.Reserve(1, c, 600)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Nodes) != 4 {
			t.Fatalf("reservation = %+v", r)
		}
		s.Slip(&r, c.Start+60)
		s.CompleteEarly(r, c.Start+60)
		r, err = s.Reserve(2, c, 600)
		if err != nil {
			t.Fatal(err)
		}
		s.Release(r)
	}
	for i := 0; i < 3; i++ {
		churn()
	}
	if avg := testing.AllocsPerRun(100, churn); avg != 0 {
		t.Errorf("Reserve/Slip/CompleteEarly/Release churn allocates %.2f/op, want 0", avg)
	}
	if err := s.ValidateProfile(); err != nil {
		t.Fatal(err)
	}
}
