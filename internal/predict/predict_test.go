package predict

import (
	"math"
	"testing"
	"testing/quick"

	"probqos/internal/failure"
	"probqos/internal/units"
)

func newTestTrace(t *testing.T, events []failure.Event) *failure.Trace {
	t.Helper()
	tr, err := failure.NewTrace(16, events)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNullPredictor(t *testing.T) {
	var p Null
	if got := p.PFail([]int{1, 2}, 0, 1000); got != 0 {
		t.Errorf("Null.PFail = %v, want 0", got)
	}
}

func TestNewTraceValidation(t *testing.T) {
	tr := newTestTrace(t, nil)
	if _, err := NewTrace(nil, 0.5); err == nil {
		t.Error("expected error for nil trace")
	}
	for _, a := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := NewTrace(tr, a); err == nil {
			t.Errorf("expected error for accuracy %v", a)
		}
	}
	if _, err := NewTrace(tr, 0.7); err != nil {
		t.Fatal(err)
	}
}

func TestTracePredictorFirstDetectableRule(t *testing.T) {
	tr := newTestTrace(t, []failure.Event{
		{Time: 100, Node: 1, Detectability: 0.9}, // invisible at a=0.5
		{Time: 200, Node: 1, Detectability: 0.3}, // first visible
		{Time: 300, Node: 1, Detectability: 0.1}, // visible but later
	})
	p, err := NewTrace(tr, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name     string
		nodes    []int
		from, to units.Time
		want     float64
	}{
		{name: "first detectable wins", nodes: []int{1}, from: 0, to: 1000, want: 0.3},
		{name: "window excludes it", nodes: []int{1}, from: 250, to: 1000, want: 0.1},
		{name: "only undetectable", nodes: []int{1}, from: 0, to: 150, want: 0},
		{name: "no failures on node", nodes: []int{2}, from: 0, to: 1000, want: 0},
		{name: "empty window", nodes: []int{1}, from: 500, to: 400, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := p.PFail(tt.nodes, tt.from, tt.to); got != tt.want {
				t.Errorf("PFail = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestTracePredictorAccuracyBoundary(t *testing.T) {
	tr := newTestTrace(t, []failure.Event{{Time: 100, Node: 0, Detectability: 0.5}})
	// px <= a is inclusive.
	p, err := NewTrace(tr, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.PFail([]int{0}, 0, 200); got != 0.5 {
		t.Errorf("PFail at boundary = %v, want 0.5", got)
	}
	p0, err := NewTrace(tr, 0.49)
	if err != nil {
		t.Fatal(err)
	}
	if got := p0.PFail([]int{0}, 0, 200); got != 0 {
		t.Errorf("PFail below boundary = %v, want 0", got)
	}
}

func TestTracePredictorNeverExceedsAccuracyProperty(t *testing.T) {
	tr, err := failure.GenerateTrace(failure.RawConfig{Episodes: 400, Seed: 8}, failure.FilterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	f := func(aRaw, nodeRaw uint16, fromRaw uint32, widthRaw uint16) bool {
		a := float64(aRaw%101) / 100
		p, err := NewTrace(tr, a)
		if err != nil {
			return false
		}
		node := int(nodeRaw) % tr.Nodes()
		from := units.Time(fromRaw)
		to := from.Add(units.Duration(widthRaw) * 100)
		pf := p.PFail([]int{node}, from, to)
		return pf >= 0 && pf <= a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFirstDetectable(t *testing.T) {
	tr := newTestTrace(t, []failure.Event{
		{Time: 100, Node: 1, Detectability: 0.9},
		{Time: 200, Node: 2, Detectability: 0.2},
	})
	p, err := NewTrace(tr, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := p.FirstDetectable([]int{1, 2}, 0, 1000)
	if !ok || e.Time != 200 || e.Node != 2 {
		t.Errorf("FirstDetectable = %+v ok=%v", e, ok)
	}
	if _, ok := p.FirstDetectable([]int{1}, 0, 1000); ok {
		t.Error("node 1's failure should be invisible at a=0.5")
	}
}

func TestBaseRate(t *testing.T) {
	if _, err := NewBaseRate(0); err == nil {
		t.Error("expected error for zero MTBF")
	}
	p, err := NewBaseRate(1000)
	if err != nil {
		t.Fatal(err)
	}
	got := p.PFail([]int{0}, 0, 1000) // one node for one MTBF
	want := 1 - math.Exp(-1)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("PFail = %v, want %v", got, want)
	}
	if got := p.PFail([]int{0}, 1000, 1000); got != 0 {
		t.Errorf("empty window PFail = %v", got)
	}
	// More nodes means more risk.
	if p.PFail([]int{0, 1}, 0, 100) <= p.PFail([]int{0}, 0, 100) {
		t.Error("two nodes should be riskier than one")
	}
}

func TestBaseRateFromTrace(t *testing.T) {
	tr, err := failure.GenerateTrace(failure.RawConfig{Episodes: 300, Seed: 2}, failure.FilterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewBaseRateFromTrace(tr)
	if err != nil {
		t.Fatal(err)
	}
	if pf := p.PFail([]int{0}, 0, units.Time(units.Day)); pf <= 0 || pf >= 1 {
		t.Errorf("PFail = %v, want in (0,1)", pf)
	}
	empty := newTestTrace(t, nil)
	if _, err := NewBaseRateFromTrace(empty); err == nil {
		t.Error("expected error for empty trace")
	}
}

func TestAuditTracePredictor(t *testing.T) {
	tr, err := failure.GenerateTrace(failure.RawConfig{Episodes: 500, Seed: 6}, failure.FilterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []float64{0, 0.5, 1} {
		p, err := NewTrace(tr, a)
		if err != nil {
			t.Fatal(err)
		}
		audit := Run(p, tr, units.Day)
		if audit.FalsePositives != 0 {
			t.Errorf("a=%v: trace predictor produced %d false positives", a, audit.FalsePositives)
		}
		got := audit.DetectionRate()
		if math.Abs(got-a) > 0.08 {
			t.Errorf("a=%v: detection rate = %.3f, want ~a", a, got)
		}
	}
}

func TestAuditEmptyTrace(t *testing.T) {
	tr := newTestTrace(t, nil)
	audit := Run(Null{}, tr, units.Hour)
	if audit.Failures != 0 || audit.DetectionRate() != 0 || audit.FalsePositiveRate() != 0 {
		t.Errorf("empty audit = %+v", audit)
	}
}
