package obs

import (
	"math"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter", nil)
	c.Inc()
	c.Add(2.5)
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %v, want 3.5", got)
	}

	g := r.Gauge("test_gauge", "a gauge", nil)
	g.Set(10)
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Errorf("gauge = %v, want 6", got)
	}
}

func TestRegistrationIsIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dup_total", "h", Labels{"k": "v"})
	b := r.Counter("dup_total", "h", Labels{"k": "v"})
	if a != b {
		t.Error("same name+labels must return the same instrument")
	}
	other := r.Counter("dup_total", "h", Labels{"k": "w"})
	if a == other {
		t.Error("different labels must return a distinct instrument")
	}
	a.Inc()
	if b.Value() != 1 || other.Value() != 0 {
		t.Errorf("siblings not independent: %v %v", b.Value(), other.Value())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("clash", "h", nil)
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("clash", "h", nil)
}

func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "0leading", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q accepted", bad)
				}
			}()
			r.Counter(bad, "h", nil)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid label name accepted")
			}
		}()
		r.Counter("ok_total", "h", Labels{"bad-label": "v"})
	}()
}

func TestCounterRejectsNegative(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("neg_total", "h", nil)
	defer func() {
		if recover() == nil {
			t.Error("negative counter add must panic")
		}
	}()
	c.Add(-1)
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "h", []float64{0.01, 0.1, 1}, nil)
	for _, v := range []float64{0.001, 0.05, 0.05, 0.5, 99} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-99.601) > 1e-9 {
		t.Errorf("sum = %v, want 99.601", h.Sum())
	}
	// Cumulative counts via snapshot: <=0.01:1, <=0.1:3, <=1:4, +Inf:5.
	snap := r.Snapshot()
	if len(snap) != 1 || len(snap[0].Series) != 1 {
		t.Fatalf("snapshot shape wrong: %+v", snap)
	}
	want := []uint64{1, 3, 4, 5}
	for i, b := range snap[0].Series[0].Buckets {
		if b.CumulativeCount != want[i] {
			t.Errorf("bucket %d cumulative = %d, want %d", i, b.CumulativeCount, want[i])
		}
	}
}

func TestHistogramInvalidBoundsPanic(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("non-increasing bounds accepted")
		}
	}()
	r.Histogram("bad_seconds", "h", []float64{1, 1}, nil)
}

// TestConcurrentUpdates exercises the registry under the race detector and
// checks that no increments are lost.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "h", nil)
	g := r.Gauge("conc_gauge", "h", nil)
	h := r.Histogram("conc_seconds", "h", []float64{1, 2}, nil)
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(1.5)
				// Concurrent reads must be safe too.
				_ = c.Value()
				_, _ = r.Snapshot(), g.Value()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*each {
		t.Errorf("counter = %v, want %d", got, workers*each)
	}
	if got := g.Value(); got != workers*each {
		t.Errorf("gauge = %v, want %d", got, workers*each)
	}
	if got := h.Count(); got != workers*each {
		t.Errorf("histogram count = %d, want %d", got, workers*each)
	}
}
