package matching

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

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
// one row at a time, choosing column j for row r with the exact conditional
// probability W[r,j] * per(rows r+1.. x remaining columns minus j) /
// per(rows r.. x remaining columns). Every one of those permanents is an
// entry of one table over column subsets (see fillSuffixPermanents), so an
// instance costs O(k * 2^k) and is limited to maxExactDim rows.
type Exact struct{}

// maxExactDim bounds Exact's instances: the table holds 2^k floats, 8 MB at
// k = 20.
const maxExactDim = 20

// exactScratch is one draw's pooled working set: the 2^k permanent table,
// the step weights and the remaining columns, all three sized for the
// largest k the scratch has served.
type exactScratch struct {
	g       []float64
	weights []float64
	cols    []int
}

var exactPool = sync.Pool{New: func() any { return new(exactScratch) }}

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
	if k > maxExactDim {
		return nil, fmt.Errorf("matching: exact sampler limited to %d rows, got %d (use Metropolis)", maxExactDim, k)
	}

	sc := exactPool.Get().(*exactScratch)
	defer exactPool.Put(sc)
	if cap(sc.g) < 1<<k {
		sc.g = make([]float64, 1<<k)
		sc.weights = make([]float64, k)
		sc.cols = make([]int, k)
	}
	g := sc.g[:1<<k]
	fillSuffixPermanents(w, g)
	set := len(g) - 1
	if !(g[set] > 0) {
		return nil, fmt.Errorf("matching: zero permanent — no positive-weight perfect matching remains")
	}

	perm := make([]int, k)
	cols := sc.cols[:k]
	for j := range cols {
		cols[j] = j
	}
	for r := 0; r < k; r++ {
		row := w.Row(r)
		stepWeights := sc.weights[:len(cols)]
		for cj, j := range cols {
			stepWeights[cj] = 0
			if x := row[j]; x != 0 {
				stepWeights[cj] = x * g[set&^(1<<j)]
			}
		}
		choice, err := src.WeightedIndex(stepWeights)
		if err != nil {
			return nil, fmt.Errorf("matching: conditional distribution empty at row %d: %w", r, err)
		}
		perm[r] = cols[choice]
		set &^= 1 << cols[choice]
		cols = append(cols[:choice], cols[choice+1:]...)
	}
	return perm, nil
}

// fillSuffixPermanents sets g[S] to the permanent of W's last |S| rows
// restricted to the columns in the bit set S: g[∅] = 1 and
// g[S] = Σ_{j∈S} W[k−|S|, j] · g[S∖{j}], the expansion along the block's
// first row. Each S∖{j} is numerically smaller than S, so one ascending pass
// fills the table. Every term is non-negative, so nothing cancels: a block
// with no positive-weight perfect matching gets exactly 0, never a residue of
// either sign.
func fillSuffixPermanents(w *matrix.Matrix, g []float64) {
	k := w.Rows()
	g[0] = 1
	for set := 1; set < len(g); set++ {
		row := w.Row(k - bits.OnesCount(uint(set)))
		var sum float64
		for rest := set; rest != 0; rest &= rest - 1 {
			j := bits.TrailingZeros(uint(rest))
			if x := row[j]; x != 0 {
				sum += x * g[set&^(1<<j)]
			}
		}
		g[set] = sum
	}
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
