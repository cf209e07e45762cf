// Package sched implements the fault-aware job scheduler of §3.3: FCFS with
// conservative backfilling over concrete node sets. Every job receives a
// reservation (start time + node set) when it is scheduled and keeps it
// ("jobs that have already been scheduled for later execution retain their
// scheduled partition"); event prediction breaks ties among candidate node
// sets by minimizing the predicted probability that the partition fails
// during the reservation.
package sched

import (
	"fmt"
	"slices"
	"sort"

	"probqos/internal/units"
)

// DowntimeOwner marks profile intervals that represent node outages rather
// than job reservations.
const DowntimeOwner = -1

// interval is one busy span [start, end) on one node, owned by a job
// reservation or by a node outage.
type interval struct {
	start, end units.Time
	owner      int
}

// profile tracks every node's future busy intervals: running jobs, pending
// reservations, and known outages. Intervals of different owners never
// overlap (the scheduler guarantees it for jobs; outages may overlap job
// intervals because failures are not known in advance).
type profile struct {
	nodes [][]interval
	// odd[n] is set while node n's interval ends are not nondecreasing in
	// list (start) order. Only then is freeDuring inexact (see
	// searchEndAfter), so the earliest-start query asks odd nodes directly
	// and derives everyone else's free windows from the sorted list. Every
	// mutation keeps the flag current.
	odd []bool
	// ends holds every interval end in the profile, so that the query
	// finds the next distinct end, an end's distinct rank, and the last end
	// with a binary search instead of a pass over every interval. place,
	// removeOwner and truncateOwner leave it to the Scheduler, which counts
	// a reservation's shared end once for all its nodes.
	ends endSet

	// The heads cache, per node, headPos[n] = searchEndAfter(nodes[n],
	// mark) and the start and end of the interval there (Forever when the
	// position is past the list), so the earliest-start query reads each
	// node's first interval not yet over at mark from flat arrays instead
	// of searching every list. Every mutation re-heads the node it touched
	// and moveMark carries all heads to a new instant. They are a pure
	// cache: no interval leaves a list before gc drops it.
	mark      units.Time
	headPos   []int32
	headStart []units.Time
	headEnd   []units.Time

	// moved is shiftOwner's scratch list, reused so a slip allocates
	// nothing once it has grown.
	moved []interval
}

// nodeIntervals is each node's first interval capacity. newProfile carves
// every node's list out of one allocation of that many per node; a list
// that outgrows its share moves to its own array, as append grows it.
const nodeIntervals = 32

func newProfile(n int) *profile {
	p := &profile{
		nodes:     make([][]interval, n),
		odd:       make([]bool, n),
		headPos:   make([]int32, n),
		headStart: make([]units.Time, n),
		headEnd:   make([]units.Time, n),
	}
	slab := make([]interval, n*nodeIntervals)
	for i := range n {
		// The three-index slice caps each share, so an append past it
		// reallocates instead of writing into the next node's.
		p.nodes[i] = slab[i*nodeIntervals : i*nodeIntervals : (i+1)*nodeIntervals]
		p.headStart[i], p.headEnd[i] = units.Forever, units.Forever
	}
	return p
}

// endSet is a multiset of instants: its distinct values ascending, each
// with the number of intervals that end there.
type endSet struct {
	at    []units.Time
	count []int32
}

// search returns the first position whose value is at least t.
func (e *endSet) search(t units.Time) int {
	lo, hi := 0, len(e.at)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e.at[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// after returns the first position whose value is strictly after t.
func (e *endSet) after(t units.Time) int { return e.search(t + 1) }

// add counts one more interval ending at t.
func (e *endSet) add(t units.Time) { e.addN(t, 1) }

// addN counts k more intervals ending at t.
func (e *endSet) addN(t units.Time, k int) {
	if k == 0 {
		return
	}
	i := e.search(t)
	if i < len(e.at) && e.at[i] == t {
		e.count[i] += int32(k)
		return
	}
	e.at = slices.Insert(e.at, i, t)
	e.count = slices.Insert(e.count, i, int32(k))
}

// removeN uncounts k intervals ending at t, which must all be counted.
func (e *endSet) removeN(t units.Time, k int) {
	if k == 0 {
		return
	}
	i := e.search(t)
	if e.count[i] -= int32(k); e.count[i] == 0 {
		e.at = slices.Delete(e.at, i, i+1)
		e.count = slices.Delete(e.count, i, i+1)
	}
}

// dropThrough removes every value at or before t.
func (e *endSet) dropThrough(t units.Time) {
	i := e.after(t)
	e.at = slices.Delete(e.at, 0, i)
	e.count = slices.Delete(e.count, 0, i)
}

// endsNondecreasing reports whether the list's interval ends never fall in
// list order: the condition under which freeDuring is exact.
func endsNondecreasing(list []interval) bool {
	for i := 1; i < len(list); i++ {
		if list[i].end < list[i-1].end {
			return false
		}
	}
	return true
}

// recheck recomputes the node's odd flag. Removing intervals never breaks
// nondecreasing ends, so removals only need it while the node is odd.
func (p *profile) recheck(node int) {
	p.odd[node] = !endsNondecreasing(p.nodes[node])
}

// insert adds a busy interval to a node and counts its end.
func (p *profile) insert(node int, iv interval) {
	if p.place(node, iv) {
		p.ends.add(iv.end)
	}
}

// place adds a busy interval to a node, keeping the list sorted by start,
// without counting its end. It reports false for an empty interval, which
// it drops.
func (p *profile) place(node int, iv interval) bool {
	if iv.end <= iv.start {
		return false
	}
	list := p.nodes[node]
	i := searchStartAfter(list, iv.start)
	list = append(list, interval{})
	copy(list[i+1:], list[i:])
	list[i] = iv
	p.nodes[node] = list
	if (i > 0 && list[i-1].end > iv.end) || (i+1 < len(list) && iv.end > list[i+1].end) {
		p.odd[node] = true
	}
	p.rehead(node)
	return true
}

// rehead recomputes node's head at the current mark.
func (p *profile) rehead(node int) {
	p.setHead(node, searchEndAfter(p.nodes[node], p.mark))
}

// setHead points node's head at list position i.
func (p *profile) setHead(node, i int) {
	list := p.nodes[node]
	p.headPos[node] = int32(i)
	if i < len(list) {
		p.headStart[node], p.headEnd[node] = list[i].start, list[i].end
	} else {
		p.headStart[node], p.headEnd[node] = units.Forever, units.Forever
	}
}

// moveMark carries every head to t. Moving forward, a normal node's head
// moves only if its interval ended by t, and then by a linear step: with
// nondecreasing ends every position it passes is one searchEndAfter would
// pass too. Odd nodes, whose binary search does not move monotonically
// with t, and every node on a backward move are searched again.
func (p *profile) moveMark(t units.Time) {
	switch {
	case t == p.mark:
		return
	case t < p.mark:
		p.mark = t
		for n := range p.nodes {
			p.rehead(n)
		}
		return
	}
	p.mark = t
	for n, end := range p.headEnd {
		switch {
		case p.odd[n]:
			p.rehead(n)
		case end <= t:
			list := p.nodes[n]
			i := int(p.headPos[n]) + 1
			for i < len(list) && list[i].end <= t {
				i++
			}
			p.setHead(n, i)
		}
	}
}

// searchStartAfter returns the first position whose interval starts strictly
// after t. Manual binary search: the closure-based sort.Search shows up in
// profiles on the candidate walk, where these lookups run once per node per
// examined start.
func searchStartAfter(list []interval, t units.Time) int {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid].start <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// searchEndAfter returns the first position whose interval ends strictly
// after t. Interval ends are not sorted (an outage inserted under a long
// reservation can end before it), but every position before the returned
// one ends at or before t only when ends are nondecreasing — which holds
// for the job intervals the scheduler places (they never overlap) and is
// conservative for outages: see freeDuring.
func searchEndAfter(list []interval, t units.Time) int {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid].end <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// freeDuring reports whether the node has no busy interval overlapping
// [from, to).
func (p *profile) freeDuring(node int, from, to units.Time) bool {
	list := p.nodes[node]
	// First interval with end > from is the only one that could overlap
	// first; walk forward while intervals start before to.
	i := searchEndAfter(list, from)
	for ; i < len(list); i++ {
		if list[i].start >= to {
			return true
		}
		if list[i].end > from {
			return false
		}
	}
	return true
}

// busyUntil returns the instant the node becomes free again, starting at at:
// the end of the (possibly chained) busy intervals covering at. If the node
// is free at at, it returns at.
func (p *profile) busyUntil(node int, at units.Time) units.Time {
	list := p.nodes[node]
	t := at
	i := searchEndAfter(list, t)
	for ; i < len(list); i++ {
		if list[i].start > t {
			break
		}
		if list[i].end > t {
			t = list[i].end
		}
	}
	return t
}

// removeOwner deletes all intervals of the owner on the node and returns
// how many it deleted, leaving their ends counted.
func (p *profile) removeOwner(node, owner int) int {
	list := p.nodes[node][:0]
	for _, iv := range p.nodes[node] {
		if iv.owner != owner {
			list = append(list, iv)
		}
	}
	removed := len(p.nodes[node]) - len(list)
	p.nodes[node] = list
	if p.odd[node] {
		p.recheck(node)
	}
	p.rehead(node)
	return removed
}

// truncateOwner cuts the owner's intervals on the node so that nothing
// extends past at; intervals entirely past at are removed. It returns how
// many it removed and how many it cut short, leaving the ends counted as
// they were. Cuts happen in place; the list is compacted only when an
// interval goes.
func (p *profile) truncateOwner(node, owner int, at units.Time) (removed, cut int) {
	list := p.nodes[node]
	for i := range list {
		switch iv := &list[i]; {
		case iv.owner != owner:
		case iv.start >= at:
			removed++
		case iv.end > at:
			iv.end = at
			cut++
		}
	}
	if removed+cut == 0 {
		return 0, 0
	}
	if removed > 0 {
		p.nodes[node] = slices.DeleteFunc(list, func(iv interval) bool {
			return iv.owner == owner && iv.start >= at
		})
	}
	p.recheck(node)
	p.rehead(node)
	return removed, cut
}

// shiftOwner moves the owner's interval on the node to start at newStart,
// preserving its length, and re-sorts.
func (p *profile) shiftOwner(node, owner int, newStart units.Time) {
	moved := p.moved[:0]
	list := p.nodes[node][:0]
	for _, iv := range p.nodes[node] {
		if iv.owner == owner {
			p.ends.removeN(iv.end, 1)
			length := iv.end.Sub(iv.start)
			moved = append(moved, interval{start: newStart, end: newStart.Add(length), owner: owner})
			continue
		}
		list = append(list, iv)
	}
	p.nodes[node] = list
	if p.odd[node] {
		p.recheck(node)
	}
	for _, iv := range moved {
		p.insert(node, iv) // re-heads the node
	}
	p.moved = moved
}

// gc drops intervals that ended at or before now.
func (p *profile) gc(now units.Time) {
	p.ends.dropThrough(now)
	for n := range p.nodes {
		list := p.nodes[n][:0]
		for _, iv := range p.nodes[n] {
			if iv.end > now {
				list = append(list, iv)
			}
		}
		p.nodes[n] = list
		if p.odd[n] {
			p.recheck(n)
		}
		p.rehead(n)
	}
}

// lastEnd returns the latest interval end in the profile, or from when
// nothing ends later. Every node is free from that instant on.
func (p *profile) lastEnd(from units.Time) units.Time {
	if n := len(p.ends.at); n > 0 && p.ends.at[n-1] > from {
		return p.ends.at[n-1]
	}
	return from
}

// validate is a debugging aid: it returns an error if the end index is off
// (see validateEnds) or any node's job-owned intervals overlap each other.
func (p *profile) validate() error {
	if err := p.validateEnds(); err != nil {
		return err
	}
	for n, list := range p.nodes {
		var jobs []interval
		for _, iv := range list {
			if iv.owner != DowntimeOwner {
				jobs = append(jobs, iv)
			}
		}
		sort.Slice(jobs, func(i, j int) bool { return jobs[i].start < jobs[j].start })
		for i := 1; i < len(jobs); i++ {
			if jobs[i].start < jobs[i-1].end {
				return fmt.Errorf("sched: node %d: job %d interval [%v,%v) overlaps job %d [%v,%v)",
					n, jobs[i].owner, jobs[i].start, jobs[i].end,
					jobs[i-1].owner, jobs[i-1].start, jobs[i-1].end)
			}
		}
	}
	return nil
}

// validateEnds returns an error unless ends counts exactly the listed
// intervals' ends: the same instants, with the same count at each.
func (p *profile) validateEnds() error {
	var want endSet
	for _, list := range p.nodes {
		for _, iv := range list {
			want.add(iv.end)
		}
	}
	if !slices.Equal(p.ends.at, want.at) || !slices.Equal(p.ends.count, want.count) {
		return fmt.Errorf("sched: end index %v×%v, listed intervals end %v×%v",
			p.ends.at, p.ends.count, want.at, want.count)
	}
	return nil
}
