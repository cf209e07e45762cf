package sched

import (
	"fmt"
	"testing"

	"probqos/internal/failure"
	"probqos/internal/predict"
	"probqos/internal/units"
)

// benchScheduler builds a 128-node scheduler loaded with a deep backlog of
// reservations, the worst case for candidate searches, and returns it with
// the reservations in job order.
func benchScheduler(b testing.TB, backlog int) (*Scheduler, []Reservation) {
	b.Helper()
	tr, err := failure.GenerateTrace(failure.RawConfig{Seed: 2}, failure.FilterConfig{})
	if err != nil {
		b.Fatal(err)
	}
	p, err := predict.NewTrace(tr, 0.7)
	if err != nil {
		b.Fatal(err)
	}
	s := New(128, p, true, 2*units.Minute)
	held := make([]Reservation, 0, backlog)
	for job := 1; job <= backlog; job++ {
		size := 1 + (job*7)%32
		dur := units.Duration(600 + (job*97)%7200)
		c, ok := s.EarliestCandidate(0, size, dur)
		if !ok {
			b.Fatal("no candidate")
		}
		r, err := s.Reserve(job, owned(c), dur)
		if err != nil {
			b.Fatal(err)
		}
		held = append(held, r)
	}
	return s, held
}

// BenchmarkEarliestCandidateBacklogged measures the scheduling decision a
// new arrival triggers against a 300-reservation profile.
func BenchmarkEarliestCandidateBacklogged(b *testing.B) {
	s, _ := benchScheduler(b, 300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.EarliestCandidate(0, 16, 3600); !ok {
			b.Fatal("no candidate")
		}
	}
}

// BenchmarkReserveRelease measures the reservation bookkeeping cycle.
func BenchmarkReserveRelease(b *testing.B) {
	s, _ := benchScheduler(b, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, ok := s.EarliestCandidate(0, 8, 1800)
		if !ok {
			b.Fatal("no candidate")
		}
		r, err := s.Reserve(1000000+i, c, 1800)
		if err != nil {
			b.Fatal(err)
		}
		s.Release(r)
	}
}

// BenchmarkSlip measures moving an 8-node reservation's start, the
// bookkeeping the engine does when a reserved node is down at start time.
// The reservation alternates between two starts so the profile stays the
// same size over any number of iterations.
func BenchmarkSlip(b *testing.B) {
	s, _ := benchScheduler(b, 100)
	c, ok := s.EarliestCandidate(0, 8, 1800)
	if !ok {
		b.Fatal("no candidate")
	}
	r, err := s.Reserve(1000000, c, 1800)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Slip(&r, c.Start.Add(units.Duration(i%2)*units.Minute))
	}
}

// BenchmarkEarliestCandidateSlipped is the odd-node worst case: every third
// reservation of the backlog slips by 30 minutes over its successors, so
// most nodes' interval ends fall out of order and the query must ask them
// directly at every start it steps through.
func BenchmarkEarliestCandidateSlipped(b *testing.B) {
	s, held := benchScheduler(b, 300)
	for job := 3; job <= 300; job += 3 {
		r := &held[job-1]
		s.Slip(r, r.Start.Add(30*units.Minute))
	}
	for _, size := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := s.EarliestCandidate(0, size, 3600); !ok {
					b.Fatal("no candidate")
				}
			}
		})
	}
}
