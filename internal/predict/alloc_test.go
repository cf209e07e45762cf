package predict

import (
	"testing"

	"probqos/internal/failure"
	"probqos/internal/units"
)

// testTrace builds the shared trace the allocation tests query.
func testTrace(t *testing.T) *failure.Trace {
	t.Helper()
	tr, err := failure.GenerateTrace(failure.RawConfig{Seed: 1}, failure.FilterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestSingleNodePFailAllocationFree pins the hot-loop contract: the
// single-node risk query through PFail with a caller-owned one-element
// slice, and the batched scoring query appending into a reused scratch
// slice, must not allocate. The scheduler scores every free node at every
// candidate start, so one allocation here is millions per sweep.
func TestSingleNodePFailAllocationFree(t *testing.T) {
	tr := testTrace(t)
	base, err := NewBaseRate(45 * units.Day)
	if err != nil {
		t.Fatal(err)
	}
	tracePred, err := NewTrace(tr, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	decaying, err := NewDecaying(tr, 0.7, 6*units.Hour)
	if err != nil {
		t.Fatal(err)
	}

	preds := []struct {
		name string
		p    Predictor
	}{
		{"Trace", tracePred},
		{"Decaying", decaying},
		{"Null", Null{}},
	}
	node := make([]int, 1)
	free := make([]int, 128)
	for i := range free {
		free[i] = i
	}
	scratch := make([]float64, 0, len(free))
	for _, tc := range preds {
		i := 0
		avg := testing.AllocsPerRun(500, func() {
			node[0] = i % 128
			from := units.Time(i%1000) * 3600
			tc.p.PFail(node, from, from.Add(6*units.Hour))
			i++
		})
		if avg != 0 {
			t.Errorf("%s.PFail(single node) allocates %.1f/op, want 0", tc.name, avg)
		}
		avg = testing.AllocsPerRun(100, func() {
			from := units.Time(i%1000) * 3600
			scratch = tc.p.AppendPFailNodes(scratch[:0], free, from, from.Add(6*units.Hour))
			i++
		})
		if avg != 0 {
			t.Errorf("%s.AppendPFailNodes allocates %.1f/op, want 0", tc.name, avg)
		}
	}

	// The base-rate floor prices every checkpoint decision.
	avg := testing.AllocsPerRun(500, func() {
		base.PFail(free[:16], 0, units.Time(2*units.Hour))
	})
	if avg != 0 {
		t.Errorf("BaseRate.PFail allocates %.1f/op, want 0", avg)
	}
}

// TestPFailNodeMatchesScanPath cross-checks the index-backed single-node
// PFail against the generic multi-node scan on every (node, window) pair of
// a real trace: the index is an optimization, never a different answer.
func TestPFailNodeMatchesScanPath(t *testing.T) {
	tr := testTrace(t)
	for _, a := range []float64{0, 0.3, 0.7, 1} {
		p, err := NewTrace(tr, a)
		if err != nil {
			t.Fatal(err)
		}
		for node := 0; node < tr.Nodes(); node++ {
			for h := 0; h < 200; h++ {
				from := units.Time(h) * 7 * 3600
				to := from.Add(units.Duration(1+h%96) * units.Hour)
				// The generic path: scan and stop at the first
				// detectable failure, exactly as PFail used to.
				var want float64
				tr.Scan([]int{node, node}, from, to, func(e failure.Event) bool {
					if e.Detectability <= a {
						want = e.Detectability
						return false
					}
					return true
				})
				if got := p.PFail([]int{node}, from, to); got != want {
					t.Fatalf("a=%v node=%d [%v,%v): fast path %v, scan %v",
						a, node, from, to, got, want)
				}
			}
		}
	}
}
