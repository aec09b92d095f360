// Package rng provides a deterministic, splittable pseudo-random number
// generator used throughout the repository.
//
// Every stochastic component (simulator noise, bootstrap sampling, k-means
// seeding, parameter-space sampling) draws from an rng.Source so that a
// single integer seed reproduces an entire experiment, including its
// parallel parts: independent goroutines receive independent streams via
// Split, which derives a child generator whose sequence is uncorrelated
// with the parent's by construction (distinct 64-bit stream increments).
//
// The core generator is PCG-XSH-RR 64/32 extended to 64-bit output by
// pairing two 32-bit draws; it is small, fast, and passes the statistical
// test batteries relevant at this scale. We intentionally do not use
// math/rand so that results are stable across Go releases.
package rng

import (
	"math"
)

const (
	pcgMultiplier = 6364136223846793005
	mixGamma      = 0x9e3779b97f4a7c15 // golden-ratio increment for Split
)

// Source is a deterministic random number generator. It is NOT safe for
// concurrent use; share work across goroutines by giving each one a Split.
type Source struct {
	state uint64
	inc   uint64 // stream selector; always odd

	// cached second normal from the Box-Muller pair
	hasGauss bool
	gauss    float64
}

// New returns a Source seeded with seed on the default stream.
func New(seed uint64) *Source {
	return NewStream(seed, 0xda3e39cb94b95bdb)
}

// NewStream returns a Source with an explicit stream identifier. Two
// sources with different streams produce independent sequences even when
// seeded identically.
func NewStream(seed, stream uint64) *Source {
	s := &Source{inc: stream<<1 | 1}
	s.state = 0
	s.next32()
	s.state += seed
	s.next32()
	return s
}

// Split derives a child generator from the parent's stream. The parent
// advances, so successive Splits yield distinct children. Children are
// safe to hand to other goroutines.
func (s *Source) Split() *Source {
	seed := s.Uint64()
	stream := s.Uint64() + mixGamma
	return NewStream(seed, stream)
}

func (s *Source) next32() uint32 {
	old := s.state
	s.state = old*pcgMultiplier + s.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return xorshifted>>rot | xorshifted<<((-rot)&31)
}

// Uint64 returns a uniformly distributed 64-bit value.
func (s *Source) Uint64() uint64 {
	hi := uint64(s.next32())
	lo := uint64(s.next32())
	return hi<<32 | lo
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
// Lemire's nearly-divisionless bounded generation avoids modulo bias.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo*bHi + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aHi * bLo
	hi = aHi*bHi + w2 + w1>>32
	lo = a * b
	return hi, lo
}

// Uniform returns a uniform value in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Norm returns a standard normal variate (Box-Muller with caching).
func (s *Source) Norm() float64 {
	if s.hasGauss {
		s.hasGauss = false
		return s.gauss
	}
	var u, v, q float64
	for {
		u = 2*s.Float64() - 1
		v = 2*s.Float64() - 1
		q = u*u + v*v
		if q > 0 && q < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(q) / q)
	s.gauss = v * f
	s.hasGauss = true
	return u * f
}

// Normal returns a normal variate with the given mean and standard deviation.
func (s *Source) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.Norm()
}

// LogNormal returns exp(N(mu, sigma)); used for multiplicative runtime noise.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Exp returns an exponential variate with the given rate (lambda > 0).
func (s *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp called with non-positive rate")
	}
	return -math.Log(1-s.Float64()) / rate
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool { return s.Float64() < p }

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(p)
	return p
}

// Shuffle permutes p in place.
func (s *Source) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Bootstrap fills dst with indices drawn uniformly with replacement
// from [0, n) and returns it. dst may be nil.
func (s *Source) Bootstrap(dst []int, n int) []int {
	if dst == nil {
		dst = make([]int, n)
	}
	for i := range dst {
		dst[i] = s.Intn(n)
	}
	return dst
}

// Sample returns k distinct indices drawn uniformly from [0, n) in random
// order. It panics if k > n. For k close to n it shuffles; for small k it
// uses Floyd's algorithm to avoid the O(n) allocation.
func (s *Source) Sample(n, k int) []int {
	if k > n {
		panic("rng: Sample k > n")
	}
	if k*3 >= n {
		p := s.Perm(n)
		return p[:k]
	}
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := s.Intn(j + 1)
		if _, dup := chosen[t]; dup {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	// Floyd's method yields a set; randomize order for downstream fairness.
	s.Shuffle(out)
	return out
}
