package stats

import "sort"

// WeightedChoice samples indices in proportion to fixed non-negative
// weights. It is used for categorical draws such as "job size class".
type WeightedChoice struct {
	cumulative []float64
	total      float64
}

// NewWeightedChoice builds a sampler over len(weights) categories. At least
// one weight must be positive; negative weights are treated as zero.
func NewWeightedChoice(weights []float64) *WeightedChoice {
	c := &WeightedChoice{cumulative: make([]float64, len(weights))}
	for i, w := range weights {
		if w > 0 {
			c.total += w
		}
		c.cumulative[i] = c.total
	}
	if c.total <= 0 {
		panic("stats: WeightedChoice requires a positive total weight")
	}
	return c
}

// Sample returns a category index drawn in proportion to the weights.
func (c *WeightedChoice) Sample(s *Source) int {
	u := s.Float64() * c.total
	i := sort.Search(len(c.cumulative), func(i int) bool { return c.cumulative[i] > u })
	if i == len(c.cumulative) { // guard against float rounding at the top end
		i = len(c.cumulative) - 1
	}
	return i
}
