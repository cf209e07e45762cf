package workload

import (
	"math"
	"testing"
)

func sampleLog() *Log {
	return &Log{Name: "sample", Jobs: []Job{
		{ID: 1, Arrival: 0, Nodes: 2, Exec: 100},
		{ID: 2, Arrival: 1000, Nodes: 8, Exec: 200},
		{ID: 3, Arrival: 2000, Nodes: 4, Exec: 300},
	}}
}

func TestScaleArrivals(t *testing.T) {
	l := sampleLog()
	compressed, err := l.ScaleArrivals(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if compressed.Jobs[2].Arrival != 1000 {
		t.Errorf("scaled arrival = %v, want 1000", compressed.Jobs[2].Arrival)
	}
	// Offered load doubles when the span halves.
	if got, want := compressed.OfferedLoad(8), 2*l.OfferedLoad(8); math.Abs(got-want) > 1e-9 {
		t.Errorf("load = %v, want %v", got, want)
	}
	// Original untouched.
	if l.Jobs[2].Arrival != 2000 {
		t.Error("input mutated")
	}
	if _, err := l.ScaleArrivals(0); err == nil {
		t.Error("zero factor accepted")
	}
}

func TestMerge(t *testing.T) {
	a := &Log{Jobs: []Job{{ID: 1, Arrival: 100, Nodes: 1, Exec: 10}}}
	b := &Log{Jobs: []Job{{ID: 1, Arrival: 50, Nodes: 2, Exec: 20}}}
	m := Merge("both", a, b)
	if m.Name != "both" || len(m.Jobs) != 2 {
		t.Fatalf("merge = %+v", m)
	}
	if m.Jobs[0].Arrival != 50 || m.Jobs[0].ID != 1 || m.Jobs[1].ID != 2 {
		t.Errorf("merge ordering wrong: %+v", m.Jobs)
	}
	if err := m.Validate(8); err != nil {
		t.Fatal(err)
	}
}
