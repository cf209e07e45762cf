package sched

import (
	"testing"
)

// TestEarliestCandidateAllocationBounds pins the scratch-buffer reuse in the
// candidate walk: after warm-up, a full EarliestCandidate against a deep
// backlog may only allocate the candidate's result node slice (which escapes
// to the caller) — never the free list, the scored-node heap, or the
// candidate-time set.
func TestEarliestCandidateAllocationBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a failure trace")
	}
	s, _ := benchScheduler(t, 300)

	cases := []struct {
		size int
		max  float64 // result slice + sort.Ints interface boxing headroom
	}{
		{1, 1},
		{8, 2},
		{16, 2},
	}
	for _, tc := range cases {
		// Warm up so the scratch buffers reach their steady-state capacity.
		for i := 0; i < 3; i++ {
			if _, ok := s.EarliestCandidate(0, tc.size, 3600); !ok {
				t.Fatalf("size %d: no candidate", tc.size)
			}
		}
		avg := testing.AllocsPerRun(100, func() {
			if _, ok := s.EarliestCandidate(0, tc.size, 3600); !ok {
				t.Fatalf("size %d: no candidate", tc.size)
			}
		})
		if avg > tc.max {
			t.Errorf("EarliestCandidate(size=%d) allocates %.1f/op, want <= %v", tc.size, avg, tc.max)
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
