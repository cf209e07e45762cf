package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSourceDeterminism(t *testing.T) {
	a := NewSource(42)
	b := NewSource(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("sources with equal seeds diverged at sample %d", i)
		}
	}
}

func TestSourceSeedsDiffer(t *testing.T) {
	a := NewSource(1)
	b := NewSource(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Errorf("sources with different seeds produced %d/100 equal samples", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewSource(7)
	c1 := parent.Split("alpha")
	parent2 := NewSource(7)
	c2 := parent2.Split("alpha")
	for i := 0; i < 50; i++ {
		if c1.Float64() != c2.Float64() {
			t.Fatal("Split is not deterministic for equal parent state and label")
		}
	}
	// Different labels from the same parent state give different streams.
	p3 := NewSource(7)
	p4 := NewSource(7)
	a := p3.Split("alpha")
	b := p4.Split("beta")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 5 {
		t.Errorf("different labels produced %d/100 equal samples", same)
	}
}

func TestExpMean(t *testing.T) {
	s := NewSource(1)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Exp(100)
	}
	mean := sum / n
	if math.Abs(mean-100) > 2 {
		t.Errorf("Exp(100) sample mean = %v, want ~100", mean)
	}
}

func TestLogNormalMean(t *testing.T) {
	s := NewSource(2)
	mu, sigma := 2.0, 0.5
	want := math.Exp(mu + sigma*sigma/2)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.LogNormal(mu, sigma)
	}
	mean := sum / n
	if math.Abs(mean-want)/want > 0.02 {
		t.Errorf("LogNormal mean = %v, want ~%v", mean, want)
	}
}

func TestWeibullPositiveAndMean(t *testing.T) {
	s := NewSource(3)
	// shape=1 reduces to exponential with the given scale.
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		v := s.Weibull(1, 50)
		if v < 0 {
			t.Fatalf("Weibull produced negative sample %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-50) > 1 {
		t.Errorf("Weibull(1,50) mean = %v, want ~50", mean)
	}
}

func TestPoissonMean(t *testing.T) {
	tests := []struct {
		name string
		mean float64
	}{
		{name: "small mean", mean: 3},
		{name: "large mean uses normal approx", mean: 200},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			s := NewSource(5)
			const n = 50000
			var sum float64
			for i := 0; i < n; i++ {
				sum += float64(s.Poisson(tt.mean))
			}
			mean := sum / n
			if math.Abs(mean-tt.mean)/tt.mean > 0.05 {
				t.Errorf("Poisson(%v) mean = %v", tt.mean, mean)
			}
		})
	}
}

func TestPoissonZeroMean(t *testing.T) {
	if got := NewSource(1).Poisson(0); got != 0 {
		t.Errorf("Poisson(0) = %d, want 0", got)
	}
}

func TestBoolProbability(t *testing.T) {
	s := NewSource(6)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) hit rate = %v", frac)
	}
}

func TestFloat64RangeProperty(t *testing.T) {
	s := NewSource(9)
	f := func(_ int) bool {
		v := s.Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntSamplers(t *testing.T) {
	s := NewSource(21)
	for i := 0; i < 1000; i++ {
		if v := s.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := s.Int63n(1000000); v < 0 || v >= 1000000 {
			t.Fatalf("Int63n out of range: %d", v)
		}
	}
}

// TestPermAndShuffle checks that Shuffle yields a permutation: every
// element kept exactly once.
func TestPermAndShuffle(t *testing.T) {
	s := NewSource(22)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make([]bool, len(xs))
	for _, v := range xs {
		if v < 0 || v >= len(xs) || seen[v] {
			t.Fatalf("shuffle is not a permutation: %v", xs)
		}
		seen[v] = true
	}
}
