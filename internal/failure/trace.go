package failure

import (
	"cmp"
	"fmt"
	"slices"

	"probqos/internal/units"
)

// Trace is a filtered failure trace over a fixed-size cluster: the input the
// simulator and the predictor consume. Events are sorted by time; a node may
// fail repeatedly. A query about a node outside the cluster sees no
// failures.
type Trace struct {
	events  []Event
	times   []units.Time // times[i] == events[i].Time (ascending)
	nodes   int
	perNode []nodeIndex
}

// nodeIndex is the per-node query index: one node's failures in ascending
// time order, with times and detectabilities unpacked into flat arrays for
// cache-friendly binary search, plus a min-detectability segment tree that
// answers "first event in [i, j) with detectability <= a" in O(log k).
// The scheduler's node-scoring loop issues that exact query once per free
// node per candidate start, which makes it the hottest read in the system.
type nodeIndex struct {
	pos   []int        // indices into Trace.events
	times []units.Time // times[i] == events[pos[i]].Time (ascending)
	det   []float64    // det[i] == events[pos[i]].Detectability
	tree  []float64    // 1-based min segment tree over det; leaves at [size, size+len)
	size  int          // leaf span: smallest power of two >= len(pos)
}

// detSentinel pads segment-tree leaves past the event count; any valid
// detectability (<= 1) compares below it.
const detSentinel = 2.0

func (ix *nodeIndex) build() {
	n := len(ix.pos)
	if n == 0 {
		return
	}
	size := 1
	for size < n {
		size <<= 1
	}
	tree := make([]float64, 2*size)
	for i := range tree {
		tree[i] = detSentinel
	}
	copy(tree[size:], ix.det)
	for i := size - 1; i >= 1; i-- {
		l, r := tree[2*i], tree[2*i+1]
		if r < l {
			l = r
		}
		tree[i] = l
	}
	ix.tree = tree
	ix.size = size
}

// searchTime returns the first position whose event time is >= t.
func (ix *nodeIndex) searchTime(t units.Time) int {
	lo, hi := 0, len(ix.times)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ix.times[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// firstLE returns the leftmost position in [lo, hi) with detectability <= a,
// or -1. It descends the segment tree, pruning subtrees whose minimum
// already exceeds a.
func (ix *nodeIndex) firstLE(lo, hi int, a float64) int {
	if ix.size == 0 || lo >= hi {
		return -1
	}
	return treeFirstLE(ix.tree, 1, 0, ix.size, lo, hi, a)
}

func treeFirstLE(tree []float64, node, nl, nh, lo, hi int, a float64) int {
	if nl >= hi || nh <= lo || tree[node] > a {
		return -1
	}
	if nh-nl == 1 {
		return nl
	}
	mid := (nl + nh) / 2
	if r := treeFirstLE(tree, 2*node, nl, mid, lo, hi, a); r >= 0 {
		return r
	}
	return treeFirstLE(tree, 2*node+1, mid, nh, lo, hi, a)
}

// NewTrace builds a trace over a cluster of n nodes. Events are copied and
// sorted by time. It returns an error if any event references a node outside
// [0, n) or carries a detectability outside [0, 1].
func NewTrace(nodes int, events []Event) (*Trace, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("failure: trace needs a positive node count, got %d", nodes)
	}
	t := &Trace{
		events:  make([]Event, len(events)),
		times:   make([]units.Time, len(events)),
		nodes:   nodes,
		perNode: make([]nodeIndex, nodes),
	}
	copy(t.events, events)
	slices.SortStableFunc(t.events, func(a, b Event) int { return cmp.Compare(a.Time, b.Time) })
	for i, e := range t.events {
		if e.Node < 0 || e.Node >= nodes {
			return nil, fmt.Errorf("failure: event %d references node %d outside [0,%d)", i, e.Node, nodes)
		}
		if !(e.Detectability >= 0 && e.Detectability <= 1) { // NaN too
			return nil, fmt.Errorf("failure: event %d has detectability %v outside [0,1]", i, e.Detectability)
		}
		t.times[i] = e.Time
		ix := &t.perNode[e.Node]
		ix.pos = append(ix.pos, i)
		ix.times = append(ix.times, e.Time)
		ix.det = append(ix.det, e.Detectability)
	}
	for n := range t.perNode {
		t.perNode[n].build()
	}
	return t, nil
}

// Nodes returns the cluster size the trace covers.
func (t *Trace) Nodes() int { return t.nodes }

// Len returns the number of failures in the trace.
func (t *Trace) Len() int { return len(t.events) }

// Events returns a copy of all failures in time order.
func (t *Trace) Events() []Event {
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// At returns the i-th failure in time order.
func (t *Trace) At(i int) Event { return t.events[i] }

// noFailures is the index every query sees for a node outside the trace:
// a node the trace does not cover has no recorded failures.
var noFailures nodeIndex

// index returns the query index of one node.
func (t *Trace) index(node int) *nodeIndex {
	if uint(node) >= uint(len(t.perNode)) {
		return &noFailures
	}
	return &t.perNode[node]
}

// ScanNode calls fn for each failure of one node with Time in [from, to), in
// ascending time order, stopping early if fn returns false. It is the
// allocation-free single-node fast path under Scan: one binary search into
// the per-node index, then a linear walk that needs no cursor slice and no
// tournament merge.
func (t *Trace) ScanNode(node int, from, to units.Time, fn func(Event) bool) {
	ix := t.index(node)
	for i := ix.searchTime(from); i < len(ix.times) && ix.times[i] < to; i++ {
		if !fn(t.events[ix.pos[i]]) {
			return
		}
	}
}

// firstDetectablePos returns the trace index (position in t.events) of the
// earliest failure of one node with Time in [from, to) and Detectability <=
// maxDet, or -1. Because events are stable-sorted by time, trace-index order
// refines time order, so positions compare exactly like (time, insertion)
// pairs — the property the batched queries below lean on.
func (t *Trace) firstDetectablePos(node int, from, to units.Time, maxDet float64) int {
	ix := t.index(node)
	lo := ix.searchTime(from)
	if lo == len(ix.times) || ix.times[lo] >= to {
		return -1 // empty window: the overwhelmingly common case
	}
	if ix.det[lo] <= maxDet {
		return ix.pos[lo] // first event already detectable
	}
	hi := lo + searchTimes(ix.times[lo:], to)
	i := ix.firstLE(lo+1, hi, maxDet)
	if i < 0 {
		return -1
	}
	return ix.pos[i]
}

// walkMinNodes is the smallest node set the window walk answers: below
// it, a search of each node's own few failures beats one search of the
// whole trace (measured on the default 128-node trace: 1 node 17 vs 32 ns,
// 3 nodes 42 vs 35 ns).
const walkMinNodes = 3

// window returns the trace positions [lo, hi) of the failures with Time in
// [from, to) when the nodes (at least walkMinNodes of them, which callers
// check first) are strictly ascending and the window holds at most
// len(nodes) failures; ok is false otherwise. Walking such a window in
// trace order costs O(log E + w) against the per-node path's O(|nodes| ·
// log k), and trace order refines time order, so the first hit per node
// is that node's earliest failure and the first hit on any node is the
// partition's.
func (t *Trace) window(nodes []int, from, to units.Time) (lo, hi int, ok bool) {
	for i := 1; i < len(nodes); i++ {
		if nodes[i] <= nodes[i-1] {
			return 0, 0, false
		}
	}
	lo = searchTimes(t.times, from)
	// Search only as far as one past the largest window the walk takes.
	end := min(len(t.times), lo+len(nodes)+1)
	hi = lo + searchTimes(t.times[lo:end], to)
	return lo, hi, hi-lo <= len(nodes)
}

// nodeRank returns the position of node in the ascending nodes, or -1.
func nodeRank(nodes []int, node int) int {
	lo, hi := 0, len(nodes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nodes[mid] < node {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(nodes) && nodes[lo] == node {
		return lo
	}
	return -1
}

// FirstDetectableOnNodes returns the earliest failure with Time in [from,
// to) and Detectability <= maxDet across all the given nodes: the batched
// partition query. A small window is walked in trace order (see window);
// otherwise one pass over the trace index answers every node through its
// segment tree and keeps the minimum trace position. Either way the answer
// is the event a time-ordered Scan would deliver first (ties at equal
// times break on trace index in both), without the per-event merge walk or
// its cursor allocation.
func (t *Trace) FirstDetectableOnNodes(nodes []int, from, to units.Time, maxDet float64) (Event, bool) {
	if len(nodes) >= walkMinNodes {
		if lo, hi, ok := t.window(nodes, from, to); ok {
			return t.firstDetectableWalk(nodes, lo, hi, maxDet)
		}
	}
	best := -1
	for _, n := range nodes {
		if i := t.firstDetectablePos(n, from, to, maxDet); i >= 0 && (best < 0 || i < best) {
			best = i
		}
	}
	if best < 0 {
		return Event{}, false
	}
	return t.events[best], true
}

// firstDetectableWalk answers FirstDetectableOnNodes for strictly
// ascending nodes by walking the trace positions [lo, hi).
func (t *Trace) firstDetectableWalk(nodes []int, lo, hi int, maxDet float64) (Event, bool) {
	for i := lo; i < hi; i++ {
		if e := t.events[i]; e.Detectability <= maxDet && nodeRank(nodes, e.Node) >= 0 {
			return e, true
		}
	}
	return Event{}, false
}

// AppendPFailBatch appends, for each node in nodes, the detectability of
// its earliest failure with Time in [from, to) and Detectability <= maxDet
// (0 when the node has none) and returns the extended slice. It is the
// scheduler's batched scoring query: all candidate nodes answered in one
// call, by one walk over a small window (see window) or else each node
// through its O(log k) segment-tree descent, instead of one predictor call
// per node.
func (t *Trace) AppendPFailBatch(dst []float64, nodes []int, from, to units.Time, maxDet float64) []float64 {
	if len(nodes) >= walkMinNodes {
		if lo, hi, ok := t.window(nodes, from, to); ok {
			return t.appendPFailWalk(dst, nodes, lo, hi, maxDet)
		}
	}
	for _, n := range nodes {
		var px float64
		if i := t.firstDetectablePos(n, from, to, maxDet); i >= 0 {
			px = t.events[i].Detectability
		}
		dst = append(dst, px)
	}
	return dst
}

// appendPFailWalk answers AppendPFailBatch for strictly ascending nodes by
// walking the trace positions [lo, hi).
func (t *Trace) appendPFailWalk(dst []float64, nodes []int, lo, hi int, maxDet float64) []float64 {
	base := len(dst)
	// A negative slot marks a node not yet hit (detectabilities lie in
	// [0, 1]), so that a first failure of detectability 0 is kept, not
	// taken for "none" and overwritten by a later one.
	for range nodes {
		dst = append(dst, -1)
	}
	out := dst[base:]
	for i := lo; i < hi; i++ {
		e := &t.events[i]
		if e.Detectability > maxDet {
			continue
		}
		if j := nodeRank(nodes, e.Node); j >= 0 && out[j] < 0 {
			out[j] = e.Detectability
		}
	}
	for j, px := range out {
		if px < 0 {
			out[j] = 0
		}
	}
	return dst
}

// searchTimes returns the first position in times with value >= t.
func searchTimes(times []units.Time, t units.Time) int {
	lo, hi := 0, len(times)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if times[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Scan calls fn for each failure with Time in [from, to) on any of the given
// nodes, in ascending time order, stopping early if fn returns false.
// It runs in O(len(nodes) * log(events) + hits) by merging per-node streams;
// single-node queries take the ScanNode fast path.
func (t *Trace) Scan(nodes []int, from, to units.Time, fn func(Event) bool) {
	if len(nodes) == 1 {
		t.ScanNode(nodes[0], from, to, fn)
		return
	}
	// cursor[i] is the next per-node index not yet yielded for nodes[i].
	cursors := make([]int, len(nodes))
	for i, n := range nodes {
		cursors[i] = t.index(n).searchTime(from)
	}
	for {
		best := -1
		var bestEvent Event
		for i, n := range nodes {
			idx := t.index(n).pos
			if cursors[i] >= len(idx) {
				continue
			}
			e := t.events[idx[cursors[i]]]
			if e.Time >= to {
				continue
			}
			if best == -1 || e.Time < bestEvent.Time ||
				(e.Time == bestEvent.Time && idx[cursors[i]] < best) {
				best = idx[cursors[i]]
				bestEvent = e
			}
		}
		if best == -1 {
			return
		}
		for i, n := range nodes {
			pos := t.index(n).pos
			if c := cursors[i]; c < len(pos) && pos[c] == best {
				cursors[i]++
			}
		}
		if !fn(bestEvent) {
			return
		}
	}
}

// Window returns all failures with Time in [from, to) on the given nodes, in
// time order.
func (t *Trace) Window(nodes []int, from, to units.Time) []Event {
	var out []Event
	t.Scan(nodes, from, to, func(e Event) bool {
		out = append(out, e)
		return true
	})
	return out
}

// Stats summarizes a trace for calibration and reporting.
type Stats struct {
	Failures    int
	Span        units.Duration // last event time - first event time
	ClusterMTBF units.Duration // span / (failures-1), cluster-wide
	NodeMTBF    units.Duration // average per-node MTBF (ClusterMTBF * nodes)
	PerDay      float64
	MaxPerNode  int
}

// Stats computes trace-level summary statistics.
func (t *Trace) Stats() Stats {
	var s Stats
	s.Failures = len(t.events)
	if s.Failures < 2 {
		return s
	}
	s.Span = t.events[len(t.events)-1].Time.Sub(t.events[0].Time)
	s.ClusterMTBF = s.Span / units.Duration(s.Failures-1)
	s.NodeMTBF = s.ClusterMTBF * units.Duration(t.nodes)
	s.PerDay = float64(s.Failures) / (s.Span.Seconds() / units.Day.Seconds())
	for n := range t.perNode {
		if k := len(t.perNode[n].pos); k > s.MaxPerNode {
			s.MaxPerNode = k
		}
	}
	return s
}
