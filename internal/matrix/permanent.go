package matrix

import (
	"fmt"
	"math/bits"
	"sync"
)

// permScratch recycles the O(n) bookkeeping of Ryser evaluations. The exact
// matching sampler computes Theta(k^2) permanents per matching, so pooling
// removes the dominant allocation of the placement step without touching the
// summation itself.
type permScratch struct {
	rowSums    []float64
	rows, cols []int
}

var permPool = sync.Pool{New: func() any { return new(permScratch) }}

func (ps *permScratch) sums(n int) []float64 {
	if cap(ps.rowSums) < n {
		ps.rowSums = make([]float64, n)
	}
	ps.rowSums = ps.rowSums[:n]
	clear(ps.rowSums)
	return ps.rowSums
}

// ryserDirect evaluates Ryser's formula over a's leading n x n block with the
// Gray-code enumeration. rowSums must be zeroed and n-long.
func ryserDirect(a *Matrix, n int, rowSums []float64) float64 {
	var total float64
	var gray uint64
	for k := uint64(1); k < uint64(1)<<uint(n); k++ {
		nextGray := k ^ (k >> 1)
		changed := bits.TrailingZeros64(gray ^ nextGray)
		if nextGray&(1<<uint(changed)) != 0 {
			for i := 0; i < n; i++ {
				rowSums[i] += a.At(i, changed)
			}
		} else {
			for i := 0; i < n; i++ {
				rowSums[i] -= a.At(i, changed)
			}
		}
		gray = nextGray
		prod := 1.0
		for _, s := range rowSums {
			prod *= s
			if prod == 0 {
				break
			}
		}
		if bits.OnesCount64(nextGray)&1 == 1 {
			total -= prod
		} else {
			total += prod
		}
	}
	if n&1 == 1 {
		total = -total
	}
	return total
}

// clampPermanent zeroes tiny negative floating point residue: the permanent
// of a non-negative matrix is non-negative.
func clampPermanent(total float64) float64 {
	if total < 0 && total > -1e-9 {
		return 0
	}
	return total
}

// MaxPermanentDim bounds the size accepted by Permanent. Ryser's formula is
// Theta(2^n * n); 24 keeps the worst case around 4*10^8 flops, tolerable for
// tests and for the exact matching sampler on small placement instances.
const MaxPermanentDim = 24

// Permanent computes the permanent of a square matrix using Ryser's formula
// with Gray-code subset enumeration: per(A) = (-1)^n * sum over nonempty
// column subsets S of (-1)^|S| * prod_i (sum_{j in S} a_ij).
//
// The permanent of the biadjacency matrix of an edge-weighted complete
// bipartite graph equals the total weight of its perfect matchings (§1.8 of
// the paper), so this function is the counting oracle for the exact weighted
// perfect matching sampler (Jerrum-Valiant-Vazirani reduction).
func Permanent(a *Matrix) (float64, error) {
	if a.rows != a.cols {
		return 0, fmt.Errorf("matrix: permanent of non-square %dx%d matrix", a.rows, a.cols)
	}
	n := a.rows
	if n > MaxPermanentDim {
		return 0, fmt.Errorf("matrix: permanent dimension %d exceeds limit %d (use the MCMC sampler instead)", n, MaxPermanentDim)
	}
	if n == 0 {
		return 1, nil
	}
	// rowSums[i] tracks sum_{j in S} a_ij for the current Gray-code subset S.
	ps := permPool.Get().(*permScratch)
	total := ryserDirect(a, n, ps.sums(n))
	permPool.Put(ps)
	return clampPermanent(total), nil
}

// PermanentMinor computes the permanent of a with row i and column j removed.
// This is the quantity per(A_{i,j}) appearing in the JVV self-reduction:
// the probability that a weighted-uniform perfect matching pairs i with j is
// a[i][j] * per(A_{i,j}) / per(A).
func PermanentMinor(a *Matrix, i, j int) (float64, error) {
	if a.rows != a.cols {
		return 0, fmt.Errorf("matrix: permanent minor of non-square matrix")
	}
	n := a.rows
	if i < 0 || i >= n || j < 0 || j >= n {
		return 0, fmt.Errorf("matrix: permanent minor index (%d,%d) out of range for %dx%d", i, j, n, n)
	}
	if n == 1 {
		return 1, nil
	}
	if n-1 > MaxPermanentDim {
		return 0, fmt.Errorf("matrix: permanent dimension %d exceeds limit %d (use the MCMC sampler instead)", n-1, MaxPermanentDim)
	}
	ps := permPool.Get().(*permScratch)
	if cap(ps.rows) < n-1 {
		ps.rows = make([]int, 0, n-1)
		ps.cols = make([]int, 0, n-1)
	}
	rows, cols := ps.rows[:0], ps.cols[:0]
	for r := 0; r < n; r++ {
		if r != i {
			rows = append(rows, r)
		}
	}
	for c := 0; c < n; c++ {
		if c != j {
			cols = append(cols, c)
		}
	}
	ps.rows, ps.cols = rows, cols
	// Materialize the minor into a pooled compact copy: the Ryser loop reads
	// it Theta(2^n * n) times, so the O(n^2) copy buys locality, and pooling
	// keeps it allocation-free. The copy holds exactly the values an indexed
	// evaluation would read, in the same order, so the sum is bit-identical.
	sub, err := a.SubmatrixScratch(rows, cols)
	if err != nil {
		permPool.Put(ps)
		return 0, err
	}
	total := ryserDirect(sub, n-1, ps.sums(n-1))
	sub.Release()
	permPool.Put(ps)
	return clampPermanent(total), nil
}
