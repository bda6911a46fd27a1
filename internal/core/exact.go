package core

import (
	"math"

	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/spanning"
)

// SampleExact draws an exactly uniform spanning tree (up to float64
// arithmetic) using the appendix's variant of the algorithm, which removes
// the three error sources of the approximate sampler at an Õ(n^(2/3+α))
// round cost (appendix, Theorem restated in §5):
//
//   - Problem 1 (a phase may fail to see enough distinct vertices) is
//     removed by Las Vegas walk extension (§5.1): the walk keeps growing
//     from its endpoint until the budget is met.
//   - Problem 3 (matching-sampler error) is removed by per-pair multiset
//     placement (§5.3): each pair machine's sequence is re-shuffled
//     uniformly, which is exact because permutations within a pair are
//     equiprobable. The price is a larger distinct-vertex budget
//     ρ = ⌊n^(2/3)⌋ so that the n^(2/3) pair machines' multisets still fit
//     the leader's Õ(n) bandwidth — which the simulator charges for real.
//   - Problem 2 (finite-precision midpoint probabilities, §5.2) is modeled
//     by running at full float64 precision (TruncDelta = 0); the paper's
//     fixed-point rejection trick with brute-force fallback guards
//     rounding at the 1/n^c scale, far below float64's resolution at the
//     simulated sizes.
//
// Overrides in cfg other than Rho, DirectPlacement, LasVegas and TruncDelta
// are honored.
func SampleExact(g *graph.Graph, cfg Config, src *prng.Source) (*spanning.Tree, *Stats, error) {
	return Sample(g, exactConfig(g.N(), cfg), src)
}

// exactConfig applies the appendix variant's overrides to cfg: the n^(2/3)
// distinct-vertex budget, Las Vegas walk extension, direct placement, and
// full precision. Shared by SampleExact and PrepareExact.
func exactConfig(n int, cfg Config) Config {
	if cfg.Rho == 0 && n >= 1 {
		cfg.Rho = ExactRho(n)
	}
	cfg.DirectPlacement = true
	cfg.LasVegas = true
	cfg.TruncDelta = 0
	return cfg
}

// ExactRho returns the appendix's distinct-vertex budget ⌊n^(2/3)⌋ (at
// least 2): the Rho exactConfig applies when cfg sets none.
func ExactRho(n int) int {
	r := int(math.Cbrt(float64(n)) * math.Cbrt(float64(n)))
	if r < 2 {
		r = 2
	}
	return r
}
