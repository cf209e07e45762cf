package sched

import (
	"fmt"
	"testing"

	"probqos/internal/failure"
	"probqos/internal/predict"
	"probqos/internal/units"
)

// benchScheduler builds a 128-node scheduler loaded with a deep backlog of
// reservations, the worst case for candidate searches.
func benchScheduler(b testing.TB, backlog int) *Scheduler {
	b.Helper()
	tr, err := failure.GenerateTrace(failure.RawConfig{Seed: 2}, failure.FilterConfig{})
	if err != nil {
		b.Fatal(err)
	}
	p, err := predict.NewTrace(tr, 0.7)
	if err != nil {
		b.Fatal(err)
	}
	s := New(128, p, WithQuoteSlack(2*units.Minute))
	for job := 1; job <= backlog; job++ {
		size := 1 + (job*7)%32
		dur := units.Duration(600 + (job*97)%7200)
		c, ok := s.EarliestCandidate(0, size, dur)
		if !ok {
			b.Fatal("no candidate")
		}
		if err := s.Reserve(job, c, dur); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkEarliestCandidateBacklogged measures the scheduling decision a
// new arrival triggers against a 300-reservation profile.
func BenchmarkEarliestCandidateBacklogged(b *testing.B) {
	s := benchScheduler(b, 300)
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
	s := benchScheduler(b, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, ok := s.EarliestCandidate(0, 8, 1800)
		if !ok {
			b.Fatal("no candidate")
		}
		if err := s.Reserve(1000000+i, c, 1800); err != nil {
			b.Fatal(err)
		}
		s.Release(1000000 + i)
	}
}

// BenchmarkEarliestCandidateSlipped is the odd-node worst case: every third
// reservation of the backlog slips by 30 minutes over its successors, so
// most nodes' interval ends fall out of order and the query must ask them
// directly at every start it steps through.
func BenchmarkEarliestCandidateSlipped(b *testing.B) {
	s := benchScheduler(b, 300)
	for job := 3; job <= 300; job += 3 {
		r, _ := s.Reservation(job)
		if err := s.Slip(job, r.Start.Add(30*units.Minute)); err != nil {
			b.Fatal(err)
		}
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
