package prng

import (
	"fmt"
	"math/rand/v2"
)

// Source is a deterministic, splittable pseudo-random source.
//
// A Source is NOT safe for concurrent use; concurrent consumers (for example
// the per-machine programs of the congested clique simulator) must each own a
// Source obtained via Split, which yields statistically independent streams.
//
// A Source holds its generator by value, so New and Split make one heap
// object and SplitInto none. It must not be copied once seeded: its Rand
// reads the PCG inside the same Source. The zero Source is unusable until
// SplitInto seeds it.
type Source struct {
	pcg  rand.PCG
	rng  rand.Rand
	seed uint64
}

// New returns a Source seeded with seed. Two Sources built from the same seed
// produce identical streams.
func New(seed uint64) *Source {
	s := new(Source)
	s.reseed(seed)
	return s
}

// reseed restarts s as the stream New(seed) yields.
func (s *Source) reseed(seed uint64) {
	s.pcg.Seed(seed, splitMix64(seed+0x9e3779b97f4a7c15))
	s.rng = *rand.New(&s.pcg)
	s.seed = seed
}

// Split derives an independent child Source identified by label. Splitting is
// deterministic: the same (parent seed, label) pair always yields the same
// child stream, and distinct labels yield decorrelated streams.
func (s *Source) Split(label uint64) *Source {
	return New(s.childSeed(label))
}

// SplitInto is Split into caller-owned storage: dst becomes the child
// Source Split(label) returns, stream for stream, without allocating.
func (s *Source) SplitInto(dst *Source, label uint64) {
	dst.reseed(s.childSeed(label))
}

// childSeed is the seed of the child Split(label) returns.
func (s *Source) childSeed(label uint64) uint64 {
	return splitMix64(s.seed ^ splitMix64(label+0x632be59bd9b4e019))
}

// Uint64 returns a uniformly random 64-bit value.
func (s *Source) Uint64() uint64 { return s.rng.Uint64() }

// Intn returns a uniform integer in [0, n). It panics if n <= 0, mirroring
// math/rand/v2; callers are expected to validate n at their own API boundary.
func (s *Source) Intn(n int) int { return s.rng.IntN(n) }

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Perm returns a uniform random permutation of [0, n).
func (s *Source) Perm(n int) []int { return s.rng.Perm(n) }

// Bool returns a fair coin flip.
func (s *Source) Bool() bool { return s.rng.Uint64()&1 == 1 }

// splitMix64 is the SplitMix64 finalizer, used to derive decorrelated seeds.
func splitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// WeightedIndex samples an index i with probability w[i] / sum(w) from a
// slice of non-negative, not-necessarily-normalized weights. It returns an
// error if the weights are empty, contain a negative entry, or sum to zero.
//
// This is the "sample from an unnormalized distribution" primitive the paper
// uses for midpoint generation (Algorithm 2 step 5) and first-visit edge
// sampling (Algorithm 4 step 7).
func (s *Source) WeightedIndex(w []float64) (int, error) {
	if len(w) == 0 {
		return 0, fmt.Errorf("prng: weighted sample over empty support")
	}
	var total float64
	for i, x := range w {
		if x < 0 {
			return 0, fmt.Errorf("prng: negative weight %g at index %d", x, i)
		}
		total += x
	}
	if total <= 0 {
		return 0, fmt.Errorf("prng: weights sum to zero")
	}
	r := s.Float64() * total
	acc := 0.0
	for i, x := range w {
		acc += x
		if r < acc {
			return i, nil
		}
	}
	// Floating point slack: fall back to the last positive-weight index.
	for i := len(w) - 1; i >= 0; i-- {
		if w[i] > 0 {
			return i, nil
		}
	}
	return 0, fmt.Errorf("prng: unreachable weighted sample state")
}
