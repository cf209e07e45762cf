package predict

import (
	"testing"
	"testing/quick"

	"probqos/internal/failure"
	"probqos/internal/health"
	"probqos/internal/units"
)

// TestBatchMatchesPerNodeAllImplementations is the differential gate for the
// Predictor contract: every shipped predictor must append, node for node,
// exactly what PFail returns for that node alone. The scheduler scores free
// nodes through AppendPFailNodes and quotes the chosen partition through
// PFail, so the two must never disagree. The nodes include ones outside the
// cluster and the windows include empty ones (to <= from).
func TestBatchMatchesPerNodeAllImplementations(t *testing.T) {
	tr := newTestTrace(t, []failure.Event{
		{Time: 100, Node: 1, Detectability: 0.9},
		{Time: 150, Node: 1, Detectability: 0.3},
		{Time: 150, Node: 2, Detectability: 0.3}, // time tie across nodes
		{Time: 200, Node: 2, Detectability: 0.0},
		{Time: 250, Node: 4, Detectability: 0.6},
		{Time: 300, Node: 4, Detectability: 0.6}, // repeat detectability
	})
	tp, err := NewTrace(tr, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecaying(tr, 0.5, 100)
	if err != nil {
		t.Fatal(err)
	}
	mon, monTrace := testMonitor(t)

	preds := []struct {
		name  string
		p     Predictor
		tr    *failure.Trace // windows are placed around its failures
		scale units.Duration // one unit of window offset
	}{
		{"Null", Null{}, tr, 1},
		{"Trace", tp, tr, 1},
		{"Decaying", dec, tr, 1},
		{"Monitor", mon, monTrace, units.Minute},
	}
	for _, tc := range preds {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.tr.Nodes()
			f := func(anchor uint16, fromRaw, spanRaw uint16, pick [4]uint8) bool {
				at := tc.tr.At(int(anchor) % tc.tr.Len()).Time
				from := at.Add(units.Duration(int(fromRaw%600)-300) * tc.scale)
				to := from.Add(units.Duration(int(spanRaw%900)-100) * tc.scale)
				nodes := make([]int, len(pick))
				for i, r := range pick {
					nodes[i] = int(r)%(n+4) - 2 // two out of range on each side
				}
				got := tc.p.AppendPFailNodes(nil, nodes, from, to)
				if len(got) != len(nodes) {
					return false
				}
				for i, node := range nodes {
					if want := tc.p.PFail([]int{node}, from, to); got[i] != want {
						t.Logf("node %d in %v [%v,%v): AppendPFailNodes %v, PFail %v", node, nodes, from, to, got[i], want)
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
				t.Error(err)
			}
		})
	}
}

// testMonitor builds a health monitor over a small synthetic cluster and
// returns it with the failure trace its telemetry foreshadows.
func testMonitor(t *testing.T) (*health.Monitor, *failure.Trace) {
	t.Helper()
	raw := failure.GenerateRawLog(failure.RawConfig{Nodes: 16, Span: 20 * units.Day, Episodes: 40, Seed: 3})
	tr, err := failure.Filter(raw, 16, failure.FilterConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	telemetry, err := health.Generate(health.TelemetryConfig{Nodes: 16, Span: 20 * units.Day, Seed: 3}, raw)
	if err != nil {
		t.Fatal(err)
	}
	m, err := health.NewMonitor(telemetry, raw, health.MonitorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return m, tr
}

// TestBatchAppendsToDst pins the append contract shared by every
// implementation the scheduler might hold: dst's existing contents are
// preserved and spare capacity is reused, so a scratch slice truly makes the
// quote loop allocation-free.
func TestBatchAppendsToDst(t *testing.T) {
	tr := newTestTrace(t, []failure.Event{{Time: 100, Node: 1, Detectability: 0.2}})
	tp, err := NewTrace(tr, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, 1, 8)
	buf[0] = -1
	got := tp.AppendPFailNodes(buf, []int{0, 1}, 0, 1000)
	if len(got) != 3 || got[0] != -1 || got[1] != 0 || got[2] != 0.2 {
		t.Fatalf("AppendPFailNodes = %v, want [-1 0 0.2]", got)
	}
	if &got[0] != &buf[0] {
		t.Error("AppendPFailNodes reallocated despite spare capacity")
	}
}
