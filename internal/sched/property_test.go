package sched

import (
	"math"
	"slices"
	"testing"

	"probqos/internal/failure"
	"probqos/internal/predict"
	"probqos/internal/stats"
	"probqos/internal/units"
)

// TestRandomOperationSequencesKeepProfileConsistent drives the scheduler
// with random reserve/complete/release/slip/downtime sequences and checks
// the core invariants after every step: job reservations never overlap on
// a node, and every candidate the scheduler offers is genuinely free.
func TestRandomOperationSequencesKeepProfileConsistent(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		src := stats.NewSource(seed)
		s := New(16, nil, true, 0)
		var reservations []Reservation
		nextID := 1
		now := units.Time(0)

		for step := 0; step < 300; step++ {
			now = now.Add(units.Duration(src.Intn(120)))
			switch op := src.Intn(10); {
			case op < 5: // reserve a new job
				size := 1 + src.Intn(16)
				dur := units.Duration(60 + src.Intn(4000))
				c, ok := s.EarliestCandidate(now, size, dur)
				if !ok {
					t.Fatalf("seed %d step %d: no candidate", seed, step)
				}
				r, err := s.Reserve(nextID, c, dur)
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				reservations = append(reservations, r)
				nextID++
			case op < 7: // complete one early
				if len(reservations) == 0 {
					continue
				}
				k := src.Intn(len(reservations))
				r := reservations[k]
				at := r.Start.Add(units.Duration(src.Intn(int(r.Duration) + 1)))
				s.CompleteEarly(r, at)
				reservations = append(reservations[:k], reservations[k+1:]...)
			case op < 8: // release one (failure path)
				if len(reservations) == 0 {
					continue
				}
				k := src.Intn(len(reservations))
				s.Release(reservations[k])
				reservations = append(reservations[:k], reservations[k+1:]...)
			case op < 9: // slip one later
				if len(reservations) == 0 {
					continue
				}
				r := &reservations[src.Intn(len(reservations))]
				s.Slip(r, r.Start.Add(units.Duration(1+src.Intn(600))))
			default: // a node outage
				node := src.Intn(16)
				s.AddDowntime(node, now, now.Add(units.Duration(30+src.Intn(300))))
			}

			// Slips may legally overlap job intervals (the simulator resolves
			// them at start time), so the overlap check does not hold here.
			// The end index and the offer invariant must always hold: a
			// fresh candidate's nodes are free for its whole window.
			if err := s.ValidateEnds(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			c, ok := s.EarliestCandidate(now, 1+src.Intn(8), units.Duration(60+src.Intn(1000)))
			if !ok {
				t.Fatalf("seed %d step %d: no verification candidate", seed, step)
			}
			end := c.Start.Add(units.Duration(60))
			for _, n := range c.Nodes {
				if !s.profile.freeDuring(n, c.Start, end) {
					t.Fatalf("seed %d step %d: offered node %d busy at %v", seed, step, n, c.Start)
				}
			}
		}
	}
}

// TestEveryCandidateIsReservable pins the feasibility claim the reference
// walk Candidates makes, and that EarliestCandidate is its first yield — including the budget-exhausted fallback's "after the last known
// busy interval the whole machine is free, so that instant is always
// feasible". Random profiles (reservations, outages, and start slips that
// overlap both) are hammered with walks under a tiny candidate budget so the
// fallback fires constantly, and every yielded candidate must pass Reserve.
func TestEveryCandidateIsReservable(t *testing.T) {
	tr, err := failure.GenerateTrace(failure.RawConfig{Seed: 7}, failure.FilterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := predict.NewTrace(tr, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 25; seed++ {
		src := stats.NewSource(seed)
		const nodes = 16
		budget := 1 + src.Intn(5)
		s := New(nodes, pred, true, units.Duration(src.Intn(600)))
		s.maxCandidates = budget // force the fallback path often
		var live []Reservation
		nextID := 1
		now := units.Time(0)
		for step := 0; step < 120; step++ {
			now = now.Add(units.Duration(src.Intn(900)))
			switch src.Intn(4) {
			case 0, 1: // a regular reservation
				size := 1 + src.Intn(nodes)
				dur := units.Duration(60 + src.Intn(5000))
				if c, ok := s.EarliestCandidate(now, size, dur); ok {
					r, err := s.Reserve(nextID, c, dur)
					if err != nil {
						t.Fatalf("seed %d step %d: reserve: %v", seed, step, err)
					}
					live = append(live, r)
					nextID++
				}
			case 2: // a node outage, possibly overlapping reservations
				n := src.Intn(nodes)
				s.AddDowntime(n, now, now.Add(units.Duration(30+src.Intn(2000))))
			default: // a start slip, overlapping whatever is there
				if len(live) > 0 {
					r := &live[src.Intn(len(live))]
					s.Slip(r, r.Start.Add(units.Duration(60+src.Intn(3000))))
				}
			}

			size := 1 + src.Intn(nodes)
			dur := units.Duration(60 + src.Intn(4000))
			probeID := 1_000_000 + step
			earliest, ok := s.EarliestCandidate(now, size, dur)
			first := true
			s.Candidates(now, size, dur, func(c Candidate) bool {
				if first && (!ok || !sameCandidate(earliest, c)) {
					t.Fatalf("seed %d step %d: EarliestCandidate = %+v, %v; walk's first yield %+v", seed, step, earliest, ok, c)
				}
				first = false
				if len(c.Nodes) != size {
					t.Fatalf("seed %d step %d: candidate has %d nodes, want %d", seed, step, len(c.Nodes), size)
				}
				r, err := s.Reserve(probeID, c, dur)
				if err != nil {
					t.Fatalf("seed %d step %d: yielded candidate at %v not reservable: %v", seed, step, c.Start, err)
				}
				s.Release(r)
				return true // walk the whole budget so the fallback candidate is exercised
			})
		}
	}
}

// TestRandomReservationsNeverOverlap drives reserve/complete cycles with no
// slips, where the strict no-overlap invariant must hold continuously.
func TestRandomReservationsNeverOverlap(t *testing.T) {
	for seed := int64(100); seed < 110; seed++ {
		src := stats.NewSource(seed)
		s := New(8, nil, true, 0)
		now := units.Time(0)
		for job := 1; job <= 150; job++ {
			now = now.Add(units.Duration(src.Intn(200)))
			size := 1 + src.Intn(8)
			dur := units.Duration(30 + src.Intn(2000))
			c, ok := s.EarliestCandidate(now, size, dur)
			if !ok {
				t.Fatal("no candidate")
			}
			if _, err := s.Reserve(job, c, dur); err != nil {
				t.Fatalf("seed %d job %d: %v", seed, job, err)
			}
			if err := s.ValidateProfile(); err != nil {
				t.Fatalf("seed %d job %d: %v", seed, job, err)
			}
			s.GC(now)
		}
	}
}

// TestEarliestCandidateMatchesWalk is the differential test of the gap-cursor
// query against the reference walk (Candidates): random profiles, built only
// through Scheduler operations, are queried after every step, and the
// answer must equal the walk's first yield bit for bit — start, node set,
// and PFail — across candidate budgets from 1 to 512, the null and a trace
// predictor, first fit, and quote slack zero and positive. Slips and
// outages nested in reservations make nodes odd constantly, so both the
// cursor path and the odd-node path are exercised, and every step also
// checks that the profile's odd flags and end multiset are current.
func TestEarliestCandidateMatchesWalk(t *testing.T) {
	tr, err := failure.GenerateTrace(failure.RawConfig{Seed: 11}, failure.FilterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tracePred, err := predict.NewTrace(tr, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	budgets := []int{1, 2, 3, 5, 8, 17, 64, 512}
	for seed := int64(0); seed < 210; seed++ {
		src := stats.NewSource(seed)
		nodes := 2 + src.Intn(31)
		var pred predict.Predictor = predict.Null{}
		if seed%2 == 1 {
			pred = tracePred
		}
		var slack units.Duration
		if seed%3 != 0 {
			slack = units.Duration(1 + src.Intn(900))
		}
		// A coarse grain makes interval ends coincide, so the walk's
		// de-duplication and the budget's distinct rank both matter.
		grain := units.Duration(1)
		if seed%4 == 0 {
			grain = 300
		}
		s := New(nodes, pred, seed%5 != 4, slack)
		s.maxCandidates = budgets[seed%int64(len(budgets))]
		dur := func(lo, span int) units.Duration {
			return grain * units.Duration(1+(lo+src.Intn(span))/int(grain))
		}
		var live []Reservation
		nextID := 1
		now := units.Time(0)
		for step := 0; step < 300; step++ {
			now = now.Add(units.Duration(src.Intn(400)))
			switch op := src.Intn(12); {
			case op < 5: // reserve
				size := 1 + src.Intn(nodes)
				d := dur(60, 5000)
				c, ok := s.EarliestCandidate(now.Add(units.Duration(src.Intn(2000))), size, d)
				if !ok {
					t.Fatalf("seed %d step %d: no candidate", seed, step)
				}
				r, err := s.Reserve(nextID, c, d)
				if err != nil {
					t.Fatalf("seed %d step %d: reserve: %v", seed, step, err)
				}
				live = append(live, r)
				nextID++
			case op < 6 && len(live) > 0: // complete early
				k := src.Intn(len(live))
				r := live[k]
				s.CompleteEarly(r, r.Start.Add(units.Duration(src.Intn(int(r.Duration)+1))))
				live = append(live[:k], live[k+1:]...)
			case op < 7 && len(live) > 0: // release
				k := src.Intn(len(live))
				s.Release(live[k])
				live = append(live[:k], live[k+1:]...)
			case op < 9 && len(live) > 0: // slip, overlapping whatever is there
				r := &live[src.Intn(len(live))]
				s.Slip(r, r.Start.Add(dur(1, 3000)))
			case op < 11: // an outage, often nested inside a reservation
				at := now.Add(units.Duration(src.Intn(3000)))
				s.AddDowntime(src.Intn(nodes), at, at.Add(dur(30, 1500)))
			default:
				s.GC(now)
			}

			for n, list := range s.profile.nodes {
				if want := !endsNondecreasing(list); s.profile.odd[n] != want {
					t.Fatalf("seed %d step %d: odd[%d] = %v, want %v", seed, step, n, s.profile.odd[n], want)
				}
			}
			if err := s.profile.validateEnds(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			checkHeads(t, s.profile, seed, step)
			// Usually one query; sometimes a negotiation-like run of
			// queries at later starts and then one back at the first, so
			// the heads' mark moves forward and backward.
			from := now.Add(units.Duration(src.Intn(1500)))
			froms := []units.Time{from}
			if src.Intn(3) == 0 {
				at := from
				for k := src.Intn(4); k >= 0; k-- {
					at = at.Add(units.Duration(src.Intn(3000)))
					froms = append(froms, at)
				}
				froms = append(froms, from)
			}
			for _, from := range froms {
				size := 1 + src.Intn(nodes)
				d := dur(30, 4000)
				got, ok := s.EarliestCandidate(from, size, d)
				var want Candidate
				s.Candidates(from, size, d, func(c Candidate) bool {
					want = c
					return false
				})
				if !ok || !sameCandidate(got, want) {
					t.Fatalf("seed %d step %d: EarliestCandidate(%v, %d, %v) = %+v, %v; walk yields %+v",
						seed, step, from, size, d, got, ok, want)
				}
				if s.profile.mark != from {
					t.Fatalf("seed %d step %d: mark %v after a query at %v", seed, step, s.profile.mark, from)
				}
				checkHeads(t, s.profile, seed, step)
			}
		}
	}
}

// checkHeads fails unless every node's cached head is what a search of its
// list at the profile's mark finds.
func checkHeads(t *testing.T, p *profile, seed int64, step int) {
	t.Helper()
	for n, list := range p.nodes {
		i := searchEndAfter(list, p.mark)
		start, end := units.Forever, units.Forever
		if i < len(list) {
			start, end = list[i].start, list[i].end
		}
		if int(p.headPos[n]) != i || p.headStart[n] != start || p.headEnd[n] != end {
			t.Fatalf("seed %d step %d: node %d head (%d, %v, %v) at mark %v, want (%d, %v, %v)", seed, step, n,
				p.headPos[n], p.headStart[n], p.headEnd[n], p.mark, i, start, end)
		}
	}
}

// riskTable is a predictor that prices each node at a fixed risk, whatever
// the window: it feeds node selection chosen risk vectors.
type riskTable []float64

func (r riskTable) PFail(nodes []int, _, _ units.Time) float64 {
	var pf float64
	for _, n := range nodes {
		pf = max(pf, r[n])
	}
	return pf
}

func (r riskTable) AppendPFailNodes(dst []float64, nodes []int, _, _ units.Time) []float64 {
	for _, n := range nodes {
		dst = append(dst, r[n])
	}
	return dst
}

// TestSelectNodesZeroRiskShortcut pins the zero-risk shortcut of
// selectNodes to the heap selection over random risk vectors, most of them
// with enough zero-risk nodes for the shortcut and some without.
func TestSelectNodesZeroRiskShortcut(t *testing.T) {
	shortcut := 0
	for seed := int64(0); seed < 2000; seed++ {
		src := stats.NewSource(seed)
		nodes := 1 + src.Intn(40)
		risks := make(riskTable, nodes)
		for n := range risks {
			if src.Bool(0.3) {
				risks[n] = []float64{0.25, 0.5, 1, src.Float64()}[src.Intn(4)]
			}
		}
		var free []int
		for n := 0; n < nodes; n++ {
			if src.Bool(0.8) {
				free = append(free, n)
			}
		}
		if len(free) == 0 {
			continue
		}
		size := 1 + src.Intn(len(free))
		s := New(nodes, risks, true, 0)
		freeRisks := risks.AppendPFailNodes(nil, free, 0, 1)
		want := slices.Clone(s.lowestRisk(free, freeRisks, size))
		got := s.selectNodes(free, 0, size, 1)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: selectNodes(%v, %d) over risks %v = %v, heap picks %v", seed, free, size, risks, got, want)
		}
		zero := 0
		for _, r := range freeRisks {
			if r <= 0 {
				zero++
			}
		}
		if zero >= size {
			shortcut++
		}
	}
	if shortcut < 500 || shortcut > 1900 {
		t.Fatalf("shortcut taken %d of 2000 times: want both paths exercised", shortcut)
	}
}

// sameCandidate compares two candidates bit for bit.
func sameCandidate(a, b Candidate) bool {
	return a.Start == b.Start && slices.Equal(a.Nodes, b.Nodes) &&
		math.Float64bits(a.PFail) == math.Float64bits(b.PFail)
}

// TestFreeDuringNestedIntervalDefect pins a known defect, not a wanted
// behaviour: freeDuring binary-searches interval ends as if they were
// sorted, so an outage nested inside a longer reservation hides the
// reservation from queries after the outage ends, and the scheduler
// double-books the node. The fix makes the query exact (the second
// reservation then fails and the candidate moves to 1000); it flips every
// assertion below.
func TestFreeDuringNestedIntervalDefect(t *testing.T) {
	s := New(1, nil, true, 0)
	if _, err := s.Reserve(1, Candidate{Start: 0, Nodes: []int{0}}, 1000); err != nil {
		t.Fatal(err)
	}
	s.AddDowntime(0, 200, 300)
	c, ok := s.EarliestCandidate(400, 1, 100)
	if !ok || c.Start != 400 {
		t.Fatalf("candidate = %+v, %v; the defect answers start 400", c, ok)
	}
	if _, err := s.Reserve(2, c, 100); err != nil {
		t.Fatalf("Reserve = %v; the defect accepts the double booking", err)
	}
	if err := s.ValidateProfile(); err == nil {
		t.Fatal("ValidateProfile found no overlap; the defect leaves jobs 1 and 2 overlapping")
	}
}
