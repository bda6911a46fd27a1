package core

import (
	"fmt"
	"math"

	"repro/internal/mm"
)

// Config parameterizes the sampler. The zero value picks the paper's
// defaults at Sample time.
type Config struct {
	// Backend is the matrix multiplication implementation (default
	// mm.Fast{}, the Õ(n^α) cost model the headline theorem assumes).
	Backend mm.Backend
	// Epsilon is the total variation target of Theorem 1 (default 1/n).
	// Midpoint placement is exact (matching.Exact up to matchingLimit
	// positions, direct placement beyond), so the realized matching error
	// is 0 and Epsilon only controls the walk-length safety margin.
	Epsilon float64
	// Rho is the distinct-vertex budget per phase (default ⌊√n⌋, the
	// Theorem 1 setting; the appendix's exact variant uses ⌊n^(2/3)⌋...
	// see SampleExact).
	Rho int
	// WalkLength overrides the per-phase target walk length l (default:
	// the smallest power of two at least log2(4√n/ε)·n³, the paper's
	// choice). Smaller values speed simulation at the cost of a higher
	// chance that a phase walk ends before seeing Rho distinct vertices —
	// which costs rounds, not correctness, since every phase still visits
	// at least one new vertex.
	WalkLength int64
	// TruncDelta, when positive, truncates every matrix power product down
	// to multiples of TruncDelta (Lemma 7's fixed-point discipline).
	// Default 0: full float64 precision.
	TruncDelta float64
	// DirectPlacement, when true, always places midpoints from the pair
	// machines' per-pair multisets in uniformly-shuffled order instead of
	// sampling a global perfect matching — the appendix's §5.3 mechanism,
	// which removes the matching sampler's error entirely at the price of
	// Θ(√n)-word messages from up to n^(2/3) pair machines (charged by the
	// simulator). SampleExact sets this.
	DirectPlacement bool
	// LasVegas, when true, extends a phase walk that ends before reaching
	// its distinct-vertex budget by sampling further segments from the
	// current endpoint (appendix §5.1), making coverage failures
	// impossible instead of ε-improbable.
	LasVegas bool
	// KernelWorkers is ignored: the dense kernels are sequential. It stays
	// only because the frozen benchmark harness (bench/trace.go) still
	// reads it, and goes with the benchmark's next revision.
	KernelWorkers int
}

// withDefaults fills unset fields for an n-vertex instance.
func (c Config) withDefaults(n int) (Config, error) {
	if n < 1 {
		return c, fmt.Errorf("core: empty graph")
	}
	if c.Backend == nil {
		c.Backend = mm.Fast{}
	}
	if c.Epsilon == 0 {
		c.Epsilon = 1 / float64(n)
	}
	if c.Epsilon <= 0 || c.Epsilon >= 1 {
		return c, fmt.Errorf("core: epsilon must be in (0,1), got %g", c.Epsilon)
	}
	if c.Rho == 0 {
		c.Rho = int(math.Sqrt(float64(n)))
		if c.Rho < 2 {
			c.Rho = 2
		}
	}
	if c.Rho < 2 {
		return c, fmt.Errorf("core: rho must be >= 2, got %d", c.Rho)
	}
	if c.WalkLength == 0 {
		c.WalkLength = DefaultWalkLength(n, c.Epsilon)
		if c.WalkLength > SimWalkCap {
			c.WalkLength = SimWalkCap
		}
	}
	if c.WalkLength < 2 || c.WalkLength&(c.WalkLength-1) != 0 {
		return c, fmt.Errorf("core: walk length must be a power of two >= 2, got %d", c.WalkLength)
	}
	if c.TruncDelta < 0 {
		return c, fmt.Errorf("core: negative truncation delta %g", c.TruncDelta)
	}
	// A phase's walk starts at one vertex and each of its at most
	// maxExtensions segments adds at most WalkLength more, so a budget above
	// 1 + maxExtensions*WalkLength could never be reached. The ceiling
	// division keeps a huge WalkLength from overflowing.
	if reach := int64(min(c.Rho, n) - 1); c.LasVegas && (reach+maxExtensions-1)/maxExtensions > c.WalkLength {
		return c, fmt.Errorf("core: Las Vegas rho %d is out of reach: %d extensions of walk length %d see at most %d vertices",
			c.Rho, maxExtensions, c.WalkLength, 1+maxExtensions*c.WalkLength)
	}
	return c, nil
}

// Fixed limits of the simulation.
const (
	// maxPositions caps the partial walk's materialized positions per level
	// (simulation memory guard).
	maxPositions = 1 << 20
	// matchingLimit is the largest perfect-matching instance placed via the
	// exact matching sampler, whose subset table holds 2^k floats (32 KB
	// at 12). Above it,
	// the leader places midpoints directly in Π-sequence order, which
	// Lemma 4 (and the appendix's §5.3 argument) shows yields exactly the
	// same walk distribution: the matching step exists to compress
	// communication, and the simulator has already charged the compressed
	// (multiset) communication. Large instances arise only on periodic
	// Schur complements, where the partial walk legitimately grows toward
	// its target length before the final level resolves the other parity
	// class.
	matchingLimit = 12
	// maxExtensions caps Las Vegas walk segments per phase (a simulation
	// guard — the true algorithm extends indefinitely). A phase sees at most
	// 1 + maxExtensions*WalkLength vertices, and withDefaults rejects a rho
	// above that; within it, running out of segments takes a WalkLength far
	// below the paper's default.
	maxExtensions = 64
)

// maxPhases caps the number of phases on an n-vertex graph. The paper shows
// 2√n phases suffice with its Θ̃(n³) walk length; with the simulation's
// capped default length a phase may make less progress, but always at least
// one new vertex, so n phases always suffice.
func maxPhases(n int) int { return n + 16 }

// SimWalkCap bounds the default per-phase target walk length. The paper's
// Theorem 1 choice is Θ̃(n³); on periodic Schur complements the partial walk
// can legitimately materialize Θ(l) positions at the leader (unbounded local
// memory in the model), so the simulation default caps l. Correctness of the
// output distribution holds for every power-of-two l — a too-short walk only
// risks ending a phase before ρ distinct vertices are seen, costing extra
// phases, never bias. Set Config.WalkLength to override.
const SimWalkCap = 1 << 16

// DefaultWalkLength returns the paper's per-phase target length: the
// smallest power of two at least log2(4√n/ε) · n³ (§2.1).
func DefaultWalkLength(n int, epsilon float64) int64 {
	factor := math.Log2(4 * math.Sqrt(float64(n)) / epsilon)
	if factor < 1 {
		factor = 1
	}
	target := factor * float64(n) * float64(n) * float64(n)
	ell := int64(1)
	for float64(ell) < target {
		ell <<= 1
	}
	return ell
}

// Stats reports the simulated cost and shape of one Sample run.
type Stats struct {
	// Rounds is the total simulated communication rounds charged.
	Rounds int
	// Supersteps is the number of bulk-synchronous steps executed.
	Supersteps int
	// TotalWords is the total message words transported.
	TotalWords int64
	// Phases is the number of phases executed.
	Phases int
	// NewVertices[i] is the number of newly visited vertices in phase i.
	NewVertices []int
	// WalkSteps is the total length of all phase walks (Schur steps).
	WalkSteps int
	// MaxMatchingSize is the largest perfect matching instance sampled.
	MaxMatchingSize int
	// Levels is the total number of filling levels across phases.
	Levels int
	// Extensions is the number of Las Vegas walk extensions performed.
	Extensions int
}
