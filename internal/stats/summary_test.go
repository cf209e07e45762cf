package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	tests := []struct {
		name string
		give []float64
		want Summary
	}{
		{
			name: "empty",
			give: nil,
			want: Summary{},
		},
		{
			name: "single",
			give: []float64{5},
			want: Summary{N: 1, Mean: 5, Min: 5, Max: 5, Sum: 5},
		},
		{
			name: "simple",
			give: []float64{1, 2, 3, 4},
			want: Summary{N: 4, Mean: 2.5, Min: 1, Max: 4, Sum: 10, Stddev: math.Sqrt(5.0 / 3.0)},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Summarize(tt.give)
			if got.N != tt.want.N || got.Mean != tt.want.Mean ||
				got.Min != tt.want.Min || got.Max != tt.want.Max || got.Sum != tt.want.Sum {
				t.Errorf("Summarize = %+v, want %+v", got, tt.want)
			}
			if math.Abs(got.Stddev-tt.want.Stddev) > 1e-12 {
				t.Errorf("Stddev = %v, want %v", got.Stddev, tt.want.Stddev)
			}
		})
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	tests := []struct {
		p    float64
		want float64
	}{
		{p: 0, want: 10},
		{p: 50, want: 30},
		{p: 100, want: 50},
		{p: 25, want: 20},
		{p: 125, want: 50},
		{p: -5, want: 10},
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); got != tt.want {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile of empty sample should be NaN")
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestWeightedChoiceDistribution(t *testing.T) {
	c := NewWeightedChoice([]float64{1, 0, 3})
	s := NewSource(11)
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[c.Sample(s)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight category sampled %d times", counts[1])
	}
	frac0 := float64(counts[0]) / n
	if math.Abs(frac0-0.25) > 0.01 {
		t.Errorf("category 0 fraction = %v, want ~0.25", frac0)
	}
}

func TestWeightedChoicePanicsOnZeroTotal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewWeightedChoice([]float64{0, -1})
}

func TestSummarizeBoundsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			// Keep magnitudes small enough that the sum cannot overflow.
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e100 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		sorted := make([]float64, len(xs))
		copy(sorted, xs)
		sort.Float64s(sorted)
		return s.Min == sorted[0] && s.Max == sorted[len(sorted)-1] &&
			s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	s := NewSource(13)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = s.Float64() * 1000
	}
	f := func(a, b uint8) bool {
		p, q := float64(a%101), float64(b%101)
		if p > q {
			p, q = q, p
		}
		return Percentile(xs, p) <= Percentile(xs, q)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
