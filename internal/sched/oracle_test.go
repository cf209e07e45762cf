package sched

import "probqos/internal/units"

// This file holds the reference candidate walk EarliestCandidate is tested
// against: Candidates examines from and then every de-duplicated profile
// interval end after from, ascending, asking pickNodes (freeDuring on every
// node) at each, with the lazy candidateTimes iterator feeding it.
// EarliestCandidate must return its first yield bit for bit.

// Candidates walks schedulable options for a job of the given size and
// duration, earliest first, calling yield for each until yield returns
// false or the candidate budget is exhausted. Every yielded candidate is
// feasible: its nodes are free for [Start, Start+duration) in the current
// profile. The node set of each candidate is the risk-minimizing choice at
// that start time (or first-fit when fault-awareness is off).
//
// The walk reuses scheduler-owned scratch buffers, so yield must not call
// back into Candidates or EarliestCandidate on the same Scheduler.
//
// Candidates returns the number of options yielded.
func (s *Scheduler) Candidates(from units.Time, size int, duration units.Duration, yield func(Candidate) bool) int {
	if size <= 0 || size > s.n || duration <= 0 {
		return 0
	}
	yielded := 0
	emit := func(start units.Time) bool {
		nodes := s.pickNodes(start, size, duration)
		if nodes == nil {
			return true // infeasible here, keep walking
		}
		pf := s.predictor.PFail(nodes, start.Add(-s.quoteSlack), start.Add(duration))
		yielded++
		return yield(Candidate{Start: start, Nodes: nodes, PFail: pf})
	}

	// Fast path: the request may fit right now.
	if !emit(from) {
		return yielded
	}
	examined := 1
	ct := &candidateTimes{}
	s.profile.collectCandidateTimes(ct, from)
	for {
		t, ok := ct.next()
		if !ok {
			break
		}
		if examined >= s.maxCandidates {
			break
		}
		examined++
		if !emit(t) {
			return yielded
		}
	}
	// Fallback when the candidate budget ran out: after the last known busy
	// interval the whole machine is free, so that instant is always
	// feasible. (If the loop visited every time, this was already covered.)
	if examined >= s.maxCandidates && ct.max > from {
		emit(ct.max)
	}
	return yielded
}

// pickNodes selects size nodes free during [start, start+duration), or nil
// if fewer than size are free.
func (s *Scheduler) pickNodes(start units.Time, size int, duration units.Duration) []int {
	end := start.Add(duration)
	free := s.freeScratch[:0]
	for n := 0; n < s.n; n++ {
		if s.profile.freeDuring(n, start, end) {
			free = append(free, n)
		}
	}
	s.freeScratch = free
	if len(free) < size {
		return nil
	}
	return s.selectNodes(free, start, size, duration)
}

// candidateTimes lazily enumerates, in ascending de-duplicated order, the
// instants after from at which node availability can change: every profile
// interval end strictly after from. A feasible start for any request always
// lies in {from} ∪ this set.
//
// Most candidate walks stop after one or two starts, so the iterator does no
// up-front work at all: each of the first few pops is a direct min-scan over
// the profile (one sequential O(E) pass). A walk that keeps going past
// ctScanCutoff pops switches to a binary min-heap built in one pass, which
// bounds a long walk at O(E + k·log E) where the old eager path paid a full
// O(E·log E) sort every walk. The heap buffer is reused across walks, so a
// warm walk allocates nothing.
type candidateTimes struct {
	p      *profile
	from   units.Time
	last   units.Time // most recent value returned, for de-duplication
	some   bool       // whether any value has been returned yet
	max    units.Time // largest end in the profile; from when there are none
	scans  int        // direct min-scans done since collect
	inHeap bool       // the walk graduated to the heap
	heap   []units.Time
}

// ctScanCutoff is how many direct min-scans a walk gets before the iterator
// builds the heap. Scans beat the heap while the walk is short; past a few
// pops the one-time heapify amortizes better.
const ctScanCutoff = 4

// collectCandidateTimes points ct at the profile for a walk starting at
// from. All real work is deferred to next; a walk whose first candidate is
// accepted never pays anything.
func (p *profile) collectCandidateTimes(ct *candidateTimes, from units.Time) {
	ct.p = p
	ct.from = from
	ct.some = false
	ct.max = from
	ct.scans = 0
	ct.inHeap = false
	ct.heap = ct.heap[:0]
}

// next returns the smallest not-yet-returned instant, skipping duplicates.
// The second return is false when the set is exhausted.
func (ct *candidateTimes) next() (units.Time, bool) {
	if ct.inHeap {
		return ct.popHeap()
	}
	if ct.scans >= ctScanCutoff {
		ct.buildHeap()
		return ct.popHeap()
	}
	threshold := ct.from
	if ct.some {
		threshold = ct.last
	}
	first := ct.scans == 0
	ct.scans++
	var best units.Time
	found := false
	for _, list := range ct.p.nodes {
		for _, iv := range list {
			if iv.end > threshold && (!found || iv.end < best) {
				best = iv.end
				found = true
			}
			if first && iv.end > ct.max {
				ct.max = iv.end
			}
		}
	}
	if !found {
		return 0, false
	}
	ct.some, ct.last = true, best
	return best, true
}

// buildHeap loads every end beyond the walk's position into a min-heap in
// one pass, for walks long enough that repeated scans would lose.
func (ct *candidateTimes) buildHeap() {
	threshold := ct.from
	if ct.some {
		threshold = ct.last
	}
	h := ct.heap[:0]
	for _, list := range ct.p.nodes {
		for _, iv := range list {
			if iv.end > threshold {
				h = append(h, iv.end)
			}
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		timeSiftDown(h, i)
	}
	ct.heap = h
	ct.inHeap = true
}

// popHeap pops the smallest remaining instant off the heap, skipping
// duplicates.
func (ct *candidateTimes) popHeap() (units.Time, bool) {
	for len(ct.heap) > 0 {
		t := ct.heap[0]
		n := len(ct.heap) - 1
		ct.heap[0] = ct.heap[n]
		ct.heap = ct.heap[:n]
		if n > 0 {
			timeSiftDown(ct.heap, 0)
		}
		if ct.some && t == ct.last {
			continue
		}
		ct.some, ct.last = true, t
		return t, true
	}
	return 0, false
}

// timeSiftDown restores the min-heap property below index i.
func timeSiftDown(h []units.Time, i int) {
	for {
		smallest := i
		if l := 2*i + 1; l < len(h) && h[l] < h[smallest] {
			smallest = l
		}
		if r := 2*i + 2; r < len(h) && h[r] < h[smallest] {
			smallest = r
		}
		if smallest == i {
			return
		}
		h[i], h[smallest] = h[smallest], h[i]
		i = smallest
	}
}

// appendCandidateTimes drains a full walk into buf: from itself plus every
// de-duplicated end after from, ascending. Tests use it to pin the sequence
// the lazy iterator yields; the scheduler consumes candidateTimes directly.
func (p *profile) appendCandidateTimes(buf []units.Time, from units.Time) []units.Time {
	buf = append(buf, from)
	var ct candidateTimes
	p.collectCandidateTimes(&ct, from)
	for {
		t, ok := ct.next()
		if !ok {
			return buf
		}
		buf = append(buf, t)
	}
}
