// Package stats provides the deterministic random-number and distribution
// substrate used by the synthetic trace generators, plus small descriptive
// statistics helpers used to calibrate and report on those traces.
//
// Every source of randomness in the repository flows through a seeded
// *stats.Source so that all traces, simulations, and experiments are
// bit-for-bit reproducible.
package stats

import (
	"math"
	"math/rand"
)

// Source is a deterministic random source. It wraps math/rand with the
// samplers the trace generators need. A Source must be created with
// NewSource; the zero value is not usable.
type Source struct {
	rng *rand.Rand
}

// NewSource returns a Source seeded with the given seed. Equal seeds yield
// identical sample streams.
func NewSource(seed int64) *Source {
	return &Source{rng: rand.New(rand.NewSource(seed))}
}

// Split derives an independent child source from s, keyed by label. The
// child stream is a deterministic function of (parent seed position, label),
// so generators can give each sub-process its own stream without the streams
// interfering when one consumes more samples than another.
func (s *Source) Split(label string) *Source {
	h := int64(1469598103934665603) // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= int64(label[i])
		h *= 1099511628211
	}
	return NewSource(h ^ s.rng.Int63())
}

// Float64 returns a uniform sample in [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Intn returns a uniform sample in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Int63n returns a uniform sample in [0, n). It panics if n <= 0.
func (s *Source) Int63n(n int64) int64 { return s.rng.Int63n(n) }

// Shuffle randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.rng.Shuffle(n, swap) }

// Exp returns an exponential sample with the given mean. Mean must be
// positive.
func (s *Source) Exp(mean float64) float64 {
	return s.rng.ExpFloat64() * mean
}

// Norm returns a normal sample with the given mean and standard deviation.
func (s *Source) Norm(mean, stddev float64) float64 {
	return s.rng.NormFloat64()*stddev + mean
}

// LogNormal returns a sample whose logarithm is normal with parameters mu
// and sigma. The mean of the distribution is exp(mu + sigma^2/2).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.rng.NormFloat64()*sigma + mu)
}

// Weibull returns a Weibull sample with the given shape and scale. Shape < 1
// gives a heavy tail and a decreasing hazard, the empirically observed
// pattern for cluster failure inter-arrival times.
func (s *Source) Weibull(shape, scale float64) float64 {
	u := s.rng.Float64()
	//qoslint:allow floateq Float64 can return exactly 0; rejection guard before log(0)
	for u == 0 {
		u = s.rng.Float64()
	}
	return scale * math.Pow(-math.Log(u), 1/shape)
}

// Poisson returns a Poisson sample with the given mean, using inversion for
// small means and a normal approximation for large ones.
func (s *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 60 {
		v := int(math.Round(s.Norm(mean, math.Sqrt(mean))))
		if v < 0 {
			v = 0
		}
		return v
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= s.rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.rng.Float64() < p }
