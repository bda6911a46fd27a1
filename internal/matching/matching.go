package matching

import (
	"fmt"
	"math"

	"repro/internal/matrix"
	"repro/internal/prng"
)

// Sampler draws a perfect matching (as a permutation: row i matched to
// column perm[i]) with probability (approximately) proportional to the
// product of its edge weights.
type Sampler interface {
	// Name identifies the sampler in experiment output.
	Name() string
	// Sample draws one matching from the k x k weight matrix w.
	Sample(w *matrix.Matrix, src *prng.Source) ([]int, error)
}

func checkInstance(w *matrix.Matrix) (int, error) {
	k := w.Rows()
	if w.Cols() != k {
		return 0, fmt.Errorf("matching: weight matrix must be square, got %dx%d", k, w.Cols())
	}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			if v := w.At(i, j); v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, fmt.Errorf("matching: invalid weight %g at (%d,%d)", v, i, j)
			}
		}
	}
	return k, nil
}

// Exact is the Jerrum–Valiant–Vazirani exact sampler: it fixes the matching
// one row at a time, choosing column j for row i with the exact conditional
// probability W[i,j] * per(W minor i,j) / per(W remaining). Permanents come
// from Ryser's formula, so instances are limited to matrix.MaxPermanentDim.
type Exact struct{}

// Name implements Sampler.
func (Exact) Name() string { return "exact-jvv" }

// Sample implements Sampler.
func (Exact) Sample(w *matrix.Matrix, src *prng.Source) ([]int, error) {
	k, err := checkInstance(w)
	if err != nil {
		return nil, err
	}
	if k == 0 {
		return []int{}, nil
	}
	if k > matrix.MaxPermanentDim {
		return nil, fmt.Errorf("matching: exact sampler limited to %d rows, got %d (use Metropolis)", matrix.MaxPermanentDim, k)
	}

	perm := make([]int, k)
	remRows := make([]int, k)
	remCols := make([]int, k)
	weights := make([]float64, k)
	for i := range remRows {
		remRows[i] = i
		remCols[i] = i
	}
	for len(remRows) > 0 {
		row := remRows[0]
		sub, err := w.SubmatrixScratch(remRows, remCols)
		if err != nil {
			return nil, err
		}
		total, err := matrix.Permanent(sub)
		if err != nil {
			sub.Release()
			return nil, err
		}
		// The permanent of a non-negative matrix is non-negative, but Ryser's
		// inclusion-exclusion can cancel a true 0 to a small negative residue
		// (scaled by the entries, so Permanent's absolute clamp can miss it).
		// Clamp here and for each minor below, so a structurally impossible
		// column gets weight 0 instead of failing the draw.
		total = max(total, 0)
		if total <= 0 {
			sub.Release()
			return nil, fmt.Errorf("matching: zero permanent — no positive-weight perfect matching remains")
		}
		stepWeights := weights[:len(remCols)]
		clear(stepWeights)
		for cj := range remCols {
			wij := sub.At(0, cj)
			if wij == 0 {
				continue
			}
			minor, err := matrix.PermanentMinor(sub, 0, cj)
			if err != nil {
				sub.Release()
				return nil, err
			}
			stepWeights[cj] = wij * max(minor, 0)
		}
		sub.Release()
		choice, err := src.WeightedIndex(stepWeights)
		if err != nil {
			return nil, fmt.Errorf("matching: conditional distribution empty at row %d: %w", row, err)
		}
		perm[row] = remCols[choice]
		remRows = remRows[1:]
		remCols = append(remCols[:choice], remCols[choice+1:]...)
	}
	return perm, nil
}

// Metropolis samples by running a transposition Metropolis chain over
// permutations for Steps proposals, started at a maximum-cardinality
// positive matching. On the complete bipartite placement graphs the sampler
// is used for (§2.1.3), every permutation with positive weight is reachable
// by transpositions, so the chain is irreducible on the support.
type Metropolis struct {
	// Steps is the number of proposals; 0 means the default 40*k^2*ln(k+1).
	Steps int
}

// Name implements Sampler.
func (m Metropolis) Name() string { return "metropolis" }

// Sample implements Sampler.
func (m Metropolis) Sample(w *matrix.Matrix, src *prng.Source) ([]int, error) {
	k, err := checkInstance(w)
	if err != nil {
		return nil, err
	}
	if k == 0 {
		return []int{}, nil
	}
	perm, err := positiveMatching(w)
	if err != nil {
		return nil, err
	}
	if k == 1 {
		return perm, nil
	}
	steps := m.Steps
	if steps <= 0 {
		steps = int(40 * float64(k*k) * math.Log(float64(k+1)))
	}
	for s := 0; s < steps; s++ {
		i := src.Intn(k)
		j := src.Intn(k)
		if i == j {
			continue
		}
		// Proposal: swap targets of rows i and j.
		cur := w.At(i, perm[i]) * w.At(j, perm[j])
		prop := w.At(i, perm[j]) * w.At(j, perm[i])
		if prop <= 0 {
			continue
		}
		if prop >= cur || src.Float64()*cur < prop {
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	return perm, nil
}

// positiveMatching finds a perfect matching using only positive-weight
// edges via Kuhn's augmenting-path algorithm. It returns an error when none
// exists (the target distribution is then empty).
func positiveMatching(w *matrix.Matrix) ([]int, error) {
	k := w.Rows()
	matchCol := make([]int, k) // column -> row, -1 if free
	for j := range matchCol {
		matchCol[j] = -1
	}
	var try func(row int, seen []bool) bool
	try = func(row int, seen []bool) bool {
		for j := 0; j < k; j++ {
			if w.At(row, j) <= 0 || seen[j] {
				continue
			}
			seen[j] = true
			if matchCol[j] == -1 || try(matchCol[j], seen) {
				matchCol[j] = row
				return true
			}
		}
		return false
	}
	for i := 0; i < k; i++ {
		seen := make([]bool, k)
		if !try(i, seen) {
			return nil, fmt.Errorf("matching: no positive-weight perfect matching exists (row %d unmatched)", i)
		}
	}
	perm := make([]int, k)
	for j, i := range matchCol {
		perm[i] = j
	}
	return perm, nil
}

// Auto dispatches to Exact for instances up to ExactLimit rows and to
// Metropolis beyond. The zero value uses sensible defaults.
type Auto struct {
	// ExactLimit is the largest instance handled exactly (default 12).
	ExactLimit int
	// Chain configures the Metropolis fallback.
	Chain Metropolis
}

// Name implements Sampler.
func (Auto) Name() string { return "auto" }

// Sample implements Sampler.
func (a Auto) Sample(w *matrix.Matrix, src *prng.Source) ([]int, error) {
	limit := a.ExactLimit
	if limit <= 0 {
		limit = 12
	}
	if limit > matrix.MaxPermanentDim {
		limit = matrix.MaxPermanentDim
	}
	if w.Rows() <= limit {
		return Exact{}.Sample(w, src)
	}
	return a.Chain.Sample(w, src)
}

// MatchingWeight returns the weight Π_i w[i, perm[i]] of a matching.
func MatchingWeight(w *matrix.Matrix, perm []int) (float64, error) {
	k, err := checkInstance(w)
	if err != nil {
		return 0, err
	}
	if len(perm) != k {
		return 0, fmt.Errorf("matching: permutation length %d, want %d", len(perm), k)
	}
	seen := make([]bool, k)
	prod := 1.0
	for i, j := range perm {
		if j < 0 || j >= k || seen[j] {
			return 0, fmt.Errorf("matching: invalid permutation %v", perm)
		}
		seen[j] = true
		prod *= w.At(i, j)
	}
	return prod, nil
}
