package sched

import "probqos/internal/units"

// gapCursors is the scratch of one earliest-start query: for every normal
// (not odd) node, a cursor over its start-sorted interval list positioned on
// the node's earliest window of feasible starts still open at the query's t.
//
// A node is free for d from x on exactly when no interval overlaps
// [x, x+d), so between its busy spans it offers windows of feasible starts
// [gap start, gap end − d]. start[n] is the first start of the current
// window, and next[n] the index of the interval that closes it (len(list)
// when the gap never closes). A window start is t itself or an interval end,
// so it is always a start the candidate walk examines.
type gapCursors struct {
	start   []units.Time
	next    []int32
	keys    []units.Time // quickselect scratch over window starts
	minLast units.Time   // earliest window close over all normal nodes
}

// reset sizes the cursors for n nodes.
func (g *gapCursors) reset(n int) {
	if cap(g.start) < n {
		g.start = make([]units.Time, n)
		g.next = make([]int32, n)
	}
	g.start, g.next = g.start[:n], g.next[:n]
}

// seek moves node n's cursor to its earliest window whose starts reach t or
// later: it skips every interval that overlaps [t, t+d), pushing t to that
// interval's end. Exact only while the node's ends are nondecreasing, which
// is what lets one forward pass stand for every freeDuring query.
func (g *gapCursors) seek(list []interval, n int, t units.Time, d units.Duration) {
	i := int(g.next[n])
	for i < len(list) && list[i].start < t.Add(d) {
		if list[i].end > t {
			t = list[i].end
		}
		i++
	}
	g.start[n], g.next[n] = t, int32(i)
}

// lastStart returns the latest feasible start of the window closed by the
// interval at index next.
func lastStart(list []interval, next int32, d units.Duration) units.Time {
	if int(next) == len(list) {
		return units.Forever
	}
	return list[next].start.Add(-d)
}

// advance moves every window that closes before t to the node's next
// window, and reports whether any moved. A t inside every window costs one
// comparison.
func (g *gapCursors) advance(p *profile, t units.Time, d units.Duration) bool {
	if t <= g.minLast {
		return false
	}
	g.minLast = units.Forever
	for n, list := range p.nodes {
		if p.odd[n] {
			continue
		}
		last := lastStart(list, g.next[n], d)
		if last < t {
			g.seek(list, n, t, d)
			last = lastStart(list, g.next[n], d)
		}
		g.minLast = min(g.minLast, last)
	}
	return true
}

// kth returns the k-th smallest normal-node window start, or t if at least
// k windows are already open at t. Only the starts beyond t are selected
// over.
func (g *gapCursors) kth(p *profile, k int, t units.Time) units.Time {
	keys := g.keys[:0]
	open := 0
	for n, w := range g.start {
		switch {
		case p.odd[n]:
		case w <= t:
			open++
		default:
			keys = append(keys, w)
		}
	}
	g.keys = keys
	if open >= k {
		return t
	}
	return kthSmallest(keys, k-open)
}

// earliestFit finds the first start of the candidate walk — from, then
// every distinct interval end after from, ascending — at which size nodes
// are free for d. It returns the start and the nodes free there in
// ascending order, or a nil node list when no start up to the walk's
// horizon fits.
//
// Normal nodes answer through their gap cursors. With k = size − #odd, no
// start before the k-th smallest window start can fit, because at most the
// odd nodes could join the nodes whose windows have opened; so t moves
// there, the windows it passes advance, and t moves again until it stops.
// Odd nodes, whose freeDuring is not exact, are then asked directly; when
// they fall short, t steps to the next distinct end. Every start skipped
// this way is one the walk would have found infeasible.
func (s *Scheduler) earliestFit(from units.Time, size int, d units.Duration) (units.Time, []int) {
	p := s.profile
	g := &s.gaps
	g.reset(s.n)
	// Fast path: find which normal nodes are free at from, as freeDuring
	// would, and try from itself before seeking any busy node's window.
	// The heads at from say it without searching a list: a node is free
	// when its first interval not over by from starts at from+d or later.
	p.moveMark(from)
	odd, open := 0, 0
	fits := from.Add(d)
	for n, isOdd := range p.odd {
		if isOdd {
			odd++
			continue
		}
		g.next[n] = p.headPos[n]
		if p.headStart[n] >= fits {
			g.start[n] = from
			open++
		} else {
			g.start[n] = units.Forever // busy at from; sought below
		}
	}
	k := size - odd
	if open >= k {
		if free := s.freeAt(from, size, d); free != nil {
			return from, free
		}
	}
	g.minLast = units.Forever
	for n, list := range p.nodes {
		if p.odd[n] {
			continue
		}
		if g.start[n] == units.Forever {
			g.seek(list, n, from, d)
		}
		g.minLast = min(g.minLast, lastStart(list, g.next[n], d))
	}
	horizon := s.horizon(from)
	t, moved := from, open < k
	for {
		for k > 0 && moved && t <= horizon {
			moved = false
			if u := g.kth(p, k, t); u > t {
				t = u
				moved = g.advance(p, t, d)
			}
		}
		if t > horizon {
			return t, nil
		}
		// from is known not to fit by now.
		if t > from {
			if free := s.freeAt(t, size, d); free != nil {
				return t, free
			}
		}
		i := p.ends.after(t)
		if i == len(p.ends.at) {
			return t, nil
		}
		t = p.ends.at[i]
		moved = g.advance(p, t, d)
	}
}

// horizon returns the last start the candidate walk examines: the
// (maxCandidates−1)-th distinct interval end after from, or Forever when
// fewer ends follow.
func (s *Scheduler) horizon(from units.Time) units.Time {
	if s.maxCandidates < 2 {
		return from
	}
	at := s.profile.ends.at
	if i := s.profile.ends.after(from) + s.maxCandidates - 2; i < len(at) {
		return at[i]
	}
	return units.Forever
}

// freeAt lists the nodes free for d from t on (ascending), or nil if fewer
// than size are. Normal nodes are free when their current window covers t,
// which advance guarantees for every window that opened by t; odd nodes
// are asked. The pass stops as soon as size is out of reach.
func (s *Scheduler) freeAt(t units.Time, size int, d units.Duration) []int {
	p, g := s.profile, &s.gaps
	free := s.freeScratch[:0]
	maybe := s.n // nodes not yet ruled out
	for n := range p.nodes {
		ok := g.start[n] <= t
		if p.odd[n] {
			ok = p.freeDuring(n, t, t.Add(d))
		}
		if ok {
			free = append(free, n)
		} else if maybe--; maybe < size {
			s.freeScratch = free
			return nil
		}
	}
	s.freeScratch = free
	return free
}

// kthSmallest returns the k-th smallest (1-based) of keys, reordering
// them. Hoare partitioning around a median-of-three pivot keeps the many
// equal keys a profile produces (nodes sharing a window start) balanced.
func kthSmallest(keys []units.Time, k int) units.Time {
	k--
	lo, hi := 0, len(keys)-1
	for lo < hi {
		a, b, c := keys[lo], keys[int(uint(lo+hi)>>1)], keys[hi]
		pivot := max(min(a, b), min(max(a, b), c))
		i, j := lo, hi
		for i <= j {
			for keys[i] < pivot {
				i++
			}
			for keys[j] > pivot {
				j--
			}
			if i <= j {
				keys[i], keys[j] = keys[j], keys[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return keys[k]
		}
	}
	return keys[k]
}
