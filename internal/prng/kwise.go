package prng

import (
	"fmt"
	"math/bits"
)

// mersenne61 is the Mersenne prime 2^61 - 1, the field over which the t-wise
// independent hash polynomials are evaluated.
const mersenne61 = (1 << 61) - 1

// KWiseHash is a t-wise independent hash function h : [N] x [K] -> [M].
//
// This is the hash family H = {h : [n] x [k] -> [n]} that step 1 of the
// paper's load-balanced doubling algorithm (Section 3) samples: a machine
// broadcasts an O(log^2 n)-bit string from which every machine derives the
// same member of an 8c*log(n)-wise independent family (footnote 4 of the
// paper, after [Vadhan 2012]).
//
// The construction is the standard degree-(t-1) random polynomial over the
// prime field F_p with p = 2^61 - 1: h(z) = (sum_i a_i z^i mod p) mod M.
// Reducing mod M introduces a relative bias of at most M/p < 2^-40 for the
// problem sizes used here, which is far below every error budget in the
// paper's analysis.
type KWiseHash struct {
	coeff []uint64 // polynomial coefficients in F_p, len == t
	k     int      // second-argument range (walks per machine)
	m     int      // output range [0, m)
}

// NewKWiseHash derives a t-wise independent hash function with output range
// [0, m) and second-argument range [0, k) from the shared random seed words.
// Every machine calling NewKWiseHash with identical arguments obtains the
// identical function, which is what lets the leader broadcast only the seed.
func NewKWiseHash(t, k, m int, seed []uint64) (*KWiseHash, error) {
	switch {
	case t < 1:
		return nil, fmt.Errorf("prng: t-wise hash needs t >= 1, got %d", t)
	case k < 1:
		return nil, fmt.Errorf("prng: t-wise hash needs k >= 1, got %d", k)
	case m < 1:
		return nil, fmt.Errorf("prng: t-wise hash needs m >= 1, got %d", m)
	case len(seed) < t:
		return nil, fmt.Errorf("prng: t-wise hash needs %d seed words, got %d", t, len(seed))
	}
	coeff := make([]uint64, t)
	for i := 0; i < t; i++ {
		coeff[i] = seed[i] % mersenne61
	}
	return &KWiseHash{coeff: coeff, k: k, m: m}, nil
}

// SampleKWiseSeed draws the seed words for a t-wise independent function from
// src. The caller (in the distributed algorithm: the leader machine)
// broadcasts these words.
func SampleKWiseSeed(t int, src *Source) []uint64 {
	seed := make([]uint64, t)
	for i := range seed {
		seed[i] = src.Uint64()
	}
	return seed
}

// Eval computes h(x, y) in [0, m). The pair (x, y) is packed into the single
// field element z = x*k + y + 1; the +1 keeps z nonzero so the constant
// coefficient does not leak for z = 0.
func (h *KWiseHash) Eval(x, y int) int {
	z := uint64(x)*uint64(h.k) + uint64(y) + 1
	z %= mersenne61
	// Horner evaluation of the degree-(t-1) polynomial.
	acc := uint64(0)
	for i := len(h.coeff) - 1; i >= 0; i-- {
		acc = addMod61(mulMod61(acc, z), h.coeff[i])
	}
	return int(acc % uint64(h.m))
}

// mulMod61 multiplies two residues modulo 2^61 - 1 without overflow using
// the identity 2^64 ≡ 8 (mod 2^61 - 1).
func mulMod61(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	r := (lo & mersenne61) + (lo >> 61) + hi*8
	if r >= mersenne61 {
		r -= mersenne61
		if r >= mersenne61 {
			r -= mersenne61
		}
	}
	return r
}

// addMod61 adds two residues modulo 2^61 - 1.
func addMod61(a, b uint64) uint64 {
	r := a + b
	if r >= mersenne61 {
		r -= mersenne61
	}
	return r
}
