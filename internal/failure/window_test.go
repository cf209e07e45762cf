package failure

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"probqos/internal/stats"
	"probqos/internal/units"
)

// windowTestTrace builds a small seeded trace with heavy time ties and
// detectabilities that hit 0 and 1 exactly, and returns it with its
// distinct detectabilities (each a maxDet the queries cut at exactly).
func windowTestTrace(t *testing.T, src *stats.Source, nodes int) (*Trace, []float64) {
	t.Helper()
	levels := []float64{0, 0, 0.25, 0.5, 1}
	events := make([]Event, src.Intn(60))
	dets := []float64{0, 1}
	for i := range events {
		det := levels[src.Intn(len(levels))]
		if src.Bool(0.3) {
			det = src.Float64()
		}
		events[i] = Event{Time: units.Time(src.Intn(80)), Node: src.Intn(nodes), Detectability: det}
		dets = append(dets, det)
	}
	tr, err := NewTrace(nodes, events)
	if err != nil {
		t.Fatal(err)
	}
	return tr, dets
}

// windowTestNodes draws a query node list: ascending (the walk's shape,
// sometimes with nodes outside the cluster at either end), unsorted, or
// with a repeat.
func windowTestNodes(src *stats.Source, nodes int) []int {
	var out []int
	if src.Bool(0.3) {
		out = append(out, -1-src.Intn(3))
	}
	for n := 0; n < nodes; n++ {
		if src.Bool(0.6) {
			out = append(out, n)
		}
	}
	if src.Bool(0.3) {
		out = append(out, nodes+src.Intn(3))
	}
	switch src.Intn(4) {
	case 0:
		src.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	case 1:
		if len(out) > 0 {
			k := src.Intn(len(out))
			out = slices.Insert(out, k, out[k])
		}
	}
	return out
}

// TestWindowWalkMatchesPerNode is the differential gate for the window
// walk: AppendPFailBatch and FirstDetectableOnNodes must answer bit for bit
// what the per-node segment-tree path answers, on windows on both sides of
// the walk/per-node switch, and the walk itself must be exact on ascending
// nodes whatever the window's size.
func TestWindowWalkMatchesPerNode(t *testing.T) {
	walked, perNode := 0, 0
	for seed := int64(0); seed < 300; seed++ {
		src := stats.NewSource(seed)
		nodes := 1 + src.Intn(12)
		tr, dets := windowTestTrace(t, src, nodes)
		for q := 0; q < 40; q++ {
			queried := windowTestNodes(src, nodes)
			from := units.Time(src.Intn(90)) - 5
			to := from + units.Time(src.Intn(40))
			maxDet := dets[src.Intn(len(dets))]
			if _, _, ok := tr.window(queried, from, to); ok && len(queried) >= walkMinNodes {
				walked++
			} else {
				perNode++
			}

			wantPF, wantE, wantOK := perNodeAnswers(tr, queried, from, to, maxDet)
			gotPF := tr.AppendPFailBatch(nil, queried, from, to, maxDet)
			gotE, gotOK := tr.FirstDetectableOnNodes(queried, from, to, maxDet)
			if !sameBits(gotPF, wantPF) || gotOK != wantOK || gotE != wantE {
				t.Fatalf("seed %d query %d nodes %v [%v,%v) maxDet %v: batch %v, %+v %v; per node %v, %+v %v",
					seed, q, queried, from, to, maxDet, gotPF, gotE, gotOK, wantPF, wantE, wantOK)
			}
			if !strictlyAscending(queried) {
				continue
			}
			// Force the walk over the whole window, however wide.
			lo, hi := searchTimes(tr.times, from), searchTimes(tr.times, to)
			walkE, walkOK := tr.firstDetectableWalk(queried, lo, hi, maxDet)
			if walkPF := tr.appendPFailWalk(nil, queried, lo, hi, maxDet); !sameBits(walkPF, wantPF) ||
				walkOK != wantOK || walkE != wantE {
				t.Fatalf("seed %d query %d nodes %v [%v,%v) maxDet %v: walk %v, %+v %v; per node %v, %+v %v",
					seed, q, queried, from, to, maxDet, walkPF, walkE, walkOK, wantPF, wantE, wantOK)
			}
		}
	}
	if walked < 1000 || perNode < 1000 {
		t.Fatalf("queries walked %d, per node %d: want both sides of the switch exercised", walked, perNode)
	}
}

// perNodeAnswers is the per-node path both batched queries take when they
// do not walk: each node's first detectable failure from its own index.
func perNodeAnswers(tr *Trace, nodes []int, from, to units.Time, maxDet float64) ([]float64, Event, bool) {
	var pf []float64
	best := -1
	for _, n := range nodes {
		var px float64
		if i := tr.firstDetectablePos(n, from, to, maxDet); i >= 0 {
			px = tr.events[i].Detectability
			if best < 0 || i < best {
				best = i
			}
		}
		pf = append(pf, px)
	}
	if best < 0 {
		return pf, Event{}, false
	}
	return pf, tr.events[best], true
}

// strictlyAscending reports whether nodes is the walk's shape.
func strictlyAscending(nodes []int) bool {
	for i := 1; i < len(nodes); i++ {
		if nodes[i] <= nodes[i-1] {
			return false
		}
	}
	return true
}

// sameBits compares two float slices bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestWindowWalkKeepsZeroDetectability pins the sentinel: a node whose
// first failure in the window has detectability exactly 0 reports 0 even
// when a later, more detectable failure on it follows.
func TestWindowWalkKeepsZeroDetectability(t *testing.T) {
	tr := mustTrace(t, 4, []Event{
		{Time: 10, Node: 0, Detectability: 0},
		{Time: 20, Node: 0, Detectability: 0.5},
		{Time: 30, Node: 1, Detectability: 0.5},
		{Time: 40, Node: 1, Detectability: 0.25},
	})
	if _, _, ok := tr.window([]int{0, 1, 3}, 0, 100); ok {
		t.Fatal("4 failures over 3 nodes must take the per-node path")
	}
	if _, _, ok := tr.window([]int{0, 1, 2, 3}, 0, 100); !ok {
		t.Fatal("4 failures over 4 ascending nodes must take the walk")
	}
	if got := tr.AppendPFailBatch(nil, []int{0, 1, 2, 3}, 0, 100, 1); !sameBits(got, []float64{0, 0.5, 0, 0}) {
		t.Errorf("AppendPFailBatch = %v, want [0 0.5 0 0]", got)
	}
	if e, ok := tr.FirstDetectableOnNodes([]int{0, 1, 2, 3}, 0, 100, 1); !ok || e.Time != 10 {
		t.Errorf("FirstDetectableOnNodes = %+v, %v; want the failure at 10", e, ok)
	}
}

// TestSortByTimeMatchesStableSort pins the raw-log sort to a stable sort by
// time, on logs with heavy ties, on an already sorted log, and on a span
// too wide for packed keys.
func TestSortByTimeMatchesStableSort(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		src := stats.NewSource(seed)
		events := make([]RawEvent, src.Intn(400))
		for i := range events {
			events[i] = RawEvent{Time: units.Time(src.Intn(40)) - 10, Node: i, Severity: Info}
		}
		switch seed % 5 {
		case 3:
			slices.SortStableFunc(events, func(a, b RawEvent) int { return cmp.Compare(a.Time, b.Time) })
		case 4:
			if len(events) > 1 {
				events[0].Time = math.MinInt64 / 2
				events[1].Time = math.MaxInt64 / 2
			}
		}
		want := slices.Clone(events)
		slices.SortStableFunc(want, func(a, b RawEvent) int { return cmp.Compare(a.Time, b.Time) })
		sortByTime(events)
		if !slices.Equal(events, want) {
			t.Fatalf("seed %d: sortByTime differs from a stable sort by time", seed)
		}
	}
}
