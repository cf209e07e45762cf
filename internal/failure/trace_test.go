package failure

import (
	"bytes"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"probqos/internal/units"
)

func mustTrace(t *testing.T, nodes int, events []Event) *Trace {
	t.Helper()
	tr, err := NewTrace(nodes, events)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewTraceValidation(t *testing.T) {
	tests := []struct {
		name    string
		nodes   int
		events  []Event
		wantErr bool
	}{
		{name: "ok", nodes: 4, events: []Event{{Time: 1, Node: 0, Detectability: 0.5}}},
		{name: "zero nodes", nodes: 0, wantErr: true},
		{name: "node out of range", nodes: 4, events: []Event{{Node: 4}}, wantErr: true},
		{name: "negative node", nodes: 4, events: []Event{{Node: -1}}, wantErr: true},
		{name: "bad detectability", nodes: 4, events: []Event{{Node: 0, Detectability: 1.5}}, wantErr: true},
		{name: "NaN detectability", nodes: 4, events: []Event{{Node: 0, Detectability: math.NaN()}}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewTrace(tt.nodes, tt.events)
			if (err != nil) != tt.wantErr {
				t.Errorf("NewTrace error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestTraceSortsEvents(t *testing.T) {
	tr := mustTrace(t, 4, []Event{
		{Time: 300, Node: 1}, {Time: 100, Node: 2}, {Time: 200, Node: 3},
	})
	events := tr.Events()
	for i := 1; i < len(events); i++ {
		if events[i].Time < events[i-1].Time {
			t.Fatal("events not sorted")
		}
	}
	if tr.At(0).Node != 2 {
		t.Errorf("At(0) = %+v", tr.At(0))
	}
}

// TestNextOnNode checks the next-failure-on-a-node query as ScanNode's
// first yield: from is inclusive, other nodes never leak in, and a node
// with nothing left yields nothing.
func TestNextOnNode(t *testing.T) {
	tr := mustTrace(t, 4, []Event{
		{Time: 100, Node: 1}, {Time: 200, Node: 1}, {Time: 150, Node: 2},
	})
	tests := []struct {
		name   string
		node   int
		from   units.Time
		want   units.Time
		wantOK bool
	}{
		{name: "first", node: 1, from: 0, want: 100, wantOK: true},
		{name: "inclusive", node: 1, from: 100, want: 100, wantOK: true},
		{name: "second", node: 1, from: 101, want: 200, wantOK: true},
		{name: "past end", node: 1, from: 201, wantOK: false},
		{name: "never fails", node: 3, from: 0, wantOK: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var e Event
			ok := false
			tr.ScanNode(tt.node, tt.from, math.MaxInt64, func(ev Event) bool {
				e, ok = ev, true
				return false
			})
			if ok != tt.wantOK {
				t.Fatalf("ok = %v, want %v", ok, tt.wantOK)
			}
			if ok && (e.Time != tt.want || e.Node != tt.node) {
				t.Errorf("event = %+v, want node %d at %v", e, tt.node, tt.want)
			}
		})
	}
}

func TestWindow(t *testing.T) {
	tr := mustTrace(t, 8, []Event{
		{Time: 100, Node: 1}, {Time: 200, Node: 2}, {Time: 300, Node: 3},
		{Time: 400, Node: 1}, {Time: 250, Node: 5},
	})
	got := tr.Window([]int{1, 2}, 100, 400)
	if len(got) != 2 {
		t.Fatalf("window returned %d events: %+v", len(got), got)
	}
	if got[0].Time != 100 || got[1].Time != 200 {
		t.Errorf("window events = %+v", got)
	}
	// to is exclusive, from inclusive
	if got := tr.Window([]int{1}, 101, 400); len(got) != 0 {
		t.Errorf("exclusive window returned %+v", got)
	}
	if got := tr.Window([]int{1}, 101, 401); len(got) != 1 {
		t.Errorf("window should include t=400: %+v", got)
	}
}

func TestScanEarlyStop(t *testing.T) {
	tr := mustTrace(t, 4, []Event{
		{Time: 1, Node: 0}, {Time: 2, Node: 1}, {Time: 3, Node: 2},
	})
	seen := 0
	tr.Scan([]int{0, 1, 2}, 0, 10, func(Event) bool {
		seen++
		return seen < 2
	})
	if seen != 2 {
		t.Errorf("scan visited %d events after early stop, want 2", seen)
	}
}

func TestScanMergesInTimeOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		const nodes = 8
		events := make([]Event, 0, len(raw))
		for i, r := range raw {
			events = append(events, Event{
				Time: units.Time(r % 1000), Node: i % nodes, Detectability: 0.5,
			})
		}
		tr, err := NewTrace(nodes, events)
		if err != nil {
			return false
		}
		var got []Event
		tr.Scan([]int{0, 1, 2, 3, 4, 5, 6, 7}, 0, 1000, func(e Event) bool {
			got = append(got, e)
			return true
		})
		if len(got) != len(events) {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Time < got[j].Time })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTraceCSVRoundTrip(t *testing.T) {
	orig, err := GenerateTrace(RawConfig{Episodes: 100, Seed: 3}, FilterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseCSV(128, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Len() != orig.Len() {
		t.Fatalf("round trip changed length: %d -> %d", orig.Len(), parsed.Len())
	}
	for i := 0; i < orig.Len(); i++ {
		a, b := orig.At(i), parsed.At(i)
		if a.Time != b.Time || a.Node != b.Node {
			t.Fatalf("event %d differs: %+v vs %+v", i, a, b)
		}
		if diff := a.Detectability - b.Detectability; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("event %d detectability differs: %v vs %v", i, a.Detectability, b.Detectability)
		}
	}
}

func TestParseCSVErrors(t *testing.T) {
	tests := []struct {
		name string
		give string
	}{
		{name: "wrong fields", give: "1,2\n"},
		{name: "bad time", give: "x,2,0.5\n"},
		{name: "bad node", give: "1,x,0.5\n"},
		{name: "bad detectability", give: "1,2,x\n"},
		{name: "node out of range", give: "1,500,0.5\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ParseCSV(128, strings.NewReader(tt.give)); err == nil {
				t.Error("expected error")
			}
		})
	}
}

// TestNodeEvents checks that ScanNode walks all of one node's failures in
// time order, honours its half-open window, and stops when fn says so.
func TestNodeEvents(t *testing.T) {
	tr := mustTrace(t, 4, []Event{
		{Time: 300, Node: 1}, {Time: 100, Node: 1}, {Time: 200, Node: 2},
	})
	scan := func(node int, from, to units.Time, limit int) []units.Time {
		var out []units.Time
		tr.ScanNode(node, from, to, func(e Event) bool {
			out = append(out, e.Time)
			return len(out) < limit
		})
		return out
	}
	if got := scan(1, 0, math.MaxInt64, 10); !slices.Equal(got, []units.Time{100, 300}) {
		t.Errorf("node 1 failures = %v, want [100 300]", got)
	}
	if got := scan(1, 100, 300, 10); !slices.Equal(got, []units.Time{100}) {
		t.Errorf("node 1 failures in [100, 300) = %v, want [100]", got)
	}
	if got := scan(1, 0, math.MaxInt64, 1); !slices.Equal(got, []units.Time{100}) {
		t.Errorf("early stop = %v, want [100]", got)
	}
	if got := scan(3, 0, math.MaxInt64, 10); len(got) != 0 {
		t.Errorf("node 3 failures = %v, want none", got)
	}
}

func TestStatsSmallTraces(t *testing.T) {
	tr := mustTrace(t, 4, []Event{{Time: 5, Node: 0}})
	if s := tr.Stats(); s.Failures != 1 || s.ClusterMTBF != 0 {
		t.Errorf("single-event stats = %+v", s)
	}
}

func TestSeverityString(t *testing.T) {
	if Fatal.String() != "FATAL" || Severity(99).String() != "Severity(99)" {
		t.Error("severity names wrong")
	}
}

func TestParseCSVNeverPanicsProperty(t *testing.T) {
	f := func(raw []byte) bool {
		tr, err := ParseCSV(128, bytes.NewReader(raw))
		if err != nil {
			return true
		}
		// Anything accepted must be a valid trace.
		for i := 0; i < tr.Len(); i++ {
			e := tr.At(i)
			if e.Node < 0 || e.Node >= 128 || e.Detectability < 0 || e.Detectability > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// batchTestTrace builds a dense small-cluster trace from raw fuzz input with
// deliberate time collisions (times mod 50) and coarse detectability steps,
// so batched queries face ties in both dimensions.
func batchTestTrace(raw []uint16, nodes int) (*Trace, error) {
	events := make([]Event, 0, len(raw))
	for i, r := range raw {
		events = append(events, Event{
			Time:          units.Time(r % 50),
			Node:          i % nodes,
			Detectability: float64(r%5) / 4,
		})
	}
	return NewTrace(nodes, events)
}

// TestFirstDetectableOnNodesMatchesScanProperty is the differential gate for
// the batched partition query: on random windows with heavy time ties, the
// min-trace-position answer must be the exact event a time-ordered Scan
// delivers first under the same detectability cut.
func TestFirstDetectableOnNodesMatchesScanProperty(t *testing.T) {
	f := func(raw []uint16, fromRaw, toRaw uint8, detRaw uint8) bool {
		const nodes = 6
		tr, err := batchTestTrace(raw, nodes)
		if err != nil {
			return false
		}
		from := units.Time(fromRaw % 60)
		to := from + units.Time(toRaw%60)
		maxDet := float64(detRaw%6) / 5
		queried := []int{0, 2, 3, 5}

		var want Event
		wantOK := false
		tr.Scan(queried, from, to, func(e Event) bool {
			if e.Detectability <= maxDet {
				want, wantOK = e, true
				return false
			}
			return true
		})
		got, gotOK := tr.FirstDetectableOnNodes(queried, from, to, maxDet)
		if gotOK != wantOK {
			t.Logf("ok mismatch: got %v want %v (from=%v to=%v maxDet=%v)", gotOK, wantOK, from, to, maxDet)
			return false
		}
		return !gotOK || got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestAppendPFailBatchMatchesPerNodeProperty pins the batched scoring query
// to its serial definition: one AppendPFailBatch call must reproduce, per
// node and in order, the detectability of the first event a ScanNode walk
// of that node alone delivers under the same cut.
func TestAppendPFailBatchMatchesPerNodeProperty(t *testing.T) {
	f := func(raw []uint16, fromRaw, toRaw uint8, detRaw uint8) bool {
		const nodes = 6
		tr, err := batchTestTrace(raw, nodes)
		if err != nil {
			return false
		}
		from := units.Time(fromRaw % 60)
		to := from + units.Time(toRaw%60)
		maxDet := float64(detRaw%6) / 5
		queried := []int{5, 0, 3, 3, 1} // out of order, with a repeat

		got := tr.AppendPFailBatch(nil, queried, from, to, maxDet)
		if len(got) != len(queried) {
			return false
		}
		for i, n := range queried {
			var want float64
			tr.ScanNode(n, from, to, func(e Event) bool {
				if e.Detectability <= maxDet {
					want = e.Detectability
					return false
				}
				return true
			})
			if got[i] != want {
				t.Logf("node %d: got %v want %v (from=%v to=%v maxDet=%v)", n, got[i], want, from, to, maxDet)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestNodeOutsideTraceHasNoFailures pins how every query treats a node the
// trace does not cover: it has no failures, and it does not hide the
// failures of the covered nodes queried with it.
func TestNodeOutsideTraceHasNoFailures(t *testing.T) {
	tr, err := NewTrace(4, []Event{
		{Time: 10, Node: 0, Detectability: 0.2},
		{Time: 20, Node: 3, Detectability: 0.4},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{-1, 4, 100} {
		tr.ScanNode(n, 0, 100, func(e Event) bool {
			t.Errorf("ScanNode(%d) delivered %+v", n, e)
			return true
		})
		if got := tr.Window([]int{n, 3}, 0, 100); len(got) != 1 || got[0].Node != 3 {
			t.Errorf("Window(%d, 3) = %+v, want node 3's failure alone", n, got)
		}
		if e, ok := tr.FirstDetectableOnNodes([]int{n}, 0, 100, 1); ok {
			t.Errorf("FirstDetectableOnNodes(%d) = %+v", n, e)
		}
		if e, ok := tr.FirstDetectableOnNodes([]int{n, 0}, 0, 100, 1); !ok || e.Node != 0 {
			t.Errorf("FirstDetectableOnNodes(%d, 0) = %+v, %v; want node 0's failure", n, e, ok)
		}
		if got := tr.AppendPFailBatch(nil, []int{0, n}, 0, 100, 1); got[0] != 0.2 || got[1] != 0 {
			t.Errorf("AppendPFailBatch(0, %d) = %v, want [0.2 0]", n, got)
		}
	}
}

// TestAppendPFailBatchAppends pins the append contract: existing contents
// stay put and capacity is reused.
func TestAppendPFailBatchAppends(t *testing.T) {
	tr := mustTrace(t, 2, []Event{{Time: 10, Node: 1, Detectability: 0.5}})
	buf := make([]float64, 1, 8)
	buf[0] = -1
	got := tr.AppendPFailBatch(buf, []int{0, 1}, 0, 100, 1)
	if len(got) != 3 || got[0] != -1 || got[1] != 0 || got[2] != 0.5 {
		t.Fatalf("AppendPFailBatch = %v, want [-1 0 0.5]", got)
	}
	if &got[0] != &buf[0] {
		t.Error("AppendPFailBatch reallocated despite spare capacity")
	}
}
