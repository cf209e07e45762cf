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
	// with a binary search instead of a pass over every interval.
	ends endSet
}

func newProfile(n int) *profile {
	return &profile{nodes: make([][]interval, n), odd: make([]bool, n)}
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
func (e *endSet) add(t units.Time) {
	i := e.search(t)
	if i < len(e.at) && e.at[i] == t {
		e.count[i]++
		return
	}
	e.at = slices.Insert(e.at, i, t)
	e.count = slices.Insert(e.count, i, 1)
}

// remove uncounts one interval ending at t, which must be counted.
func (e *endSet) remove(t units.Time) {
	i := e.search(t)
	if e.count[i]--; e.count[i] == 0 {
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

// insert adds a busy interval to a node, keeping the list sorted by start.
func (p *profile) insert(node int, iv interval) {
	if iv.end <= iv.start {
		return
	}
	list := p.nodes[node]
	i := searchStartAfter(list, iv.start)
	list = append(list, interval{})
	copy(list[i+1:], list[i:])
	list[i] = iv
	p.nodes[node] = list
	p.ends.add(iv.end)
	if (i > 0 && list[i-1].end > iv.end) || (i+1 < len(list) && iv.end > list[i+1].end) {
		p.odd[node] = true
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

// removeOwner deletes all intervals of the owner on the node.
func (p *profile) removeOwner(node, owner int) {
	list := p.nodes[node][:0]
	for _, iv := range p.nodes[node] {
		if iv.owner != owner {
			list = append(list, iv)
		} else {
			p.ends.remove(iv.end)
		}
	}
	p.nodes[node] = list
	if p.odd[node] {
		p.recheck(node)
	}
}

// truncateOwner cuts the owner's intervals on the node so that nothing
// extends past at; intervals entirely past at are removed.
func (p *profile) truncateOwner(node, owner int, at units.Time) {
	list := p.nodes[node][:0]
	for _, iv := range p.nodes[node] {
		if iv.owner == owner {
			if iv.start >= at {
				p.ends.remove(iv.end)
				continue
			}
			if iv.end > at {
				p.ends.remove(iv.end)
				p.ends.add(at)
				iv.end = at
			}
		}
		list = append(list, iv)
	}
	p.nodes[node] = list
	p.recheck(node)
}

// shiftOwner moves the owner's interval on the node to start at newStart,
// preserving its length, and re-sorts.
func (p *profile) shiftOwner(node, owner int, newStart units.Time) {
	var moved []interval
	list := p.nodes[node][:0]
	for _, iv := range p.nodes[node] {
		if iv.owner == owner {
			p.ends.remove(iv.end)
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
		p.insert(node, iv)
	}
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

// validate is a debugging aid: it returns an error if any node's job-owned
// intervals overlap each other.
func (p *profile) validate() error {
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
