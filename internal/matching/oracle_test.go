package matching

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"testing"

	"repro/internal/matrix"
	"repro/internal/prng"
)

// The oracle: Ryser's permanent formula and the JVV self-reduction run
// against it, one permanent per remaining block and one per column minor.
// Exact draws from the same conditionals out of one subset table; the
// differential tests hold it to this oracle's permutations.

// permScratch recycles the O(n) bookkeeping of Ryser evaluations; the oracle
// computes Theta(k^2) permanents per matching.
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
func ryserDirect(a *matrix.Matrix, n int, rowSums []float64) float64 {
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

// maxRyserDim bounds the oracle: Ryser's formula is Theta(2^n * n).
const maxRyserDim = 24

// permanent computes per(A) by Ryser's formula with Gray-code subset
// enumeration: per(A) = (-1)^n * sum over nonempty column subsets S of
// (-1)^|S| * prod_i (sum_{j in S} a_ij).
func permanent(a *matrix.Matrix) (float64, error) {
	if a.Rows() != a.Cols() {
		return 0, fmt.Errorf("permanent of non-square %dx%d matrix", a.Rows(), a.Cols())
	}
	n := a.Rows()
	if n > maxRyserDim {
		return 0, fmt.Errorf("permanent dimension %d exceeds limit %d", n, maxRyserDim)
	}
	if n == 0 {
		return 1, nil
	}
	ps := permPool.Get().(*permScratch)
	total := ryserDirect(a, n, ps.sums(n))
	permPool.Put(ps)
	return clampPermanent(total), nil
}

// permanentMinor computes the permanent of a with row i and column j
// removed: per(A_{i,j}) of the JVV self-reduction.
func permanentMinor(a *matrix.Matrix, i, j int) (float64, error) {
	if a.Rows() != a.Cols() {
		return 0, fmt.Errorf("permanent minor of non-square matrix")
	}
	n := a.Rows()
	if i < 0 || i >= n || j < 0 || j >= n {
		return 0, fmt.Errorf("permanent minor index (%d,%d) out of range for %dx%d", i, j, n, n)
	}
	if n == 1 {
		return 1, nil
	}
	if n-1 > maxRyserDim {
		return 0, fmt.Errorf("permanent dimension %d exceeds limit %d", n-1, maxRyserDim)
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
	sub, err := a.Submatrix(rows, cols)
	if err != nil {
		permPool.Put(ps)
		return 0, err
	}
	total := ryserDirect(sub, n-1, ps.sums(n-1))
	permPool.Put(ps)
	return clampPermanent(total), nil
}

// ryserJVV is the JVV self-reduction over Ryser permanents: for each row in
// order, one permanent of the remaining block and one per column minor.
type ryserJVV struct{}

func (ryserJVV) Name() string { return "ryser-jvv" }

func (ryserJVV) Sample(w *matrix.Matrix, src *prng.Source) ([]int, error) {
	k, err := checkInstance(w)
	if err != nil {
		return nil, err
	}
	if k == 0 {
		return []int{}, nil
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
		sub, err := w.Submatrix(remRows, remCols)
		if err != nil {
			return nil, err
		}
		total, err := permanent(sub)
		if err != nil {
			return nil, err
		}
		// Ryser's inclusion-exclusion can cancel a true 0 to a small negative
		// residue, scaled by the entries, so clamp the block and each minor.
		total = max(total, 0)
		if total <= 0 {
			return nil, fmt.Errorf("zero permanent at row %d", row)
		}
		stepWeights := weights[:len(remCols)]
		clear(stepWeights)
		for cj := range remCols {
			wij := sub.At(0, cj)
			if wij == 0 {
				continue
			}
			minor, err := permanentMinor(sub, 0, cj)
			if err != nil {
				return nil, err
			}
			stepWeights[cj] = wij * max(minor, 0)
		}
		choice, err := src.WeightedIndex(stepWeights)
		if err != nil {
			return nil, fmt.Errorf("conditional distribution empty at row %d: %w", row, err)
		}
		perm[row] = remCols[choice]
		remRows = remRows[1:]
		remCols = append(remCols[:choice], remCols[choice+1:]...)
	}
	return perm, nil
}

// bruteForcePermanent enumerates all permutations. Only for tiny n.
func bruteForcePermanent(a *matrix.Matrix) float64 {
	n := a.Rows()
	used := make([]bool, n)
	var rec func(i int, prod float64) float64
	rec = func(i int, prod float64) float64 {
		if i == n {
			return prod
		}
		var s float64
		for j := 0; j < n; j++ {
			if !used[j] {
				used[j] = true
				s += rec(i+1, prod*a.At(i, j))
				used[j] = false
			}
		}
		return s
	}
	return rec(0, 1)
}

func TestPermanentKnown(t *testing.T) {
	// Permanent of the all-ones n x n matrix is n!.
	for n, want := range map[int]float64{1: 1, 2: 2, 3: 6, 4: 24, 5: 120} {
		m := matrix.MustNew(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, 1)
			}
		}
		p, err := permanent(m)
		if err != nil {
			t.Fatalf("permanent: %v", err)
		}
		if math.Abs(p-want) > 1e-9*want {
			t.Errorf("per(J_%d) = %g, want %g", n, p, want)
		}
	}
}

func TestPermanentMatchesBruteForce(t *testing.T) {
	src := prng.New(33)
	for trial := 0; trial < 15; trial++ {
		n := 1 + src.Intn(6)
		m := matrix.MustNew(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				m.Set(i, j, src.Float64())
			}
		}
		want := bruteForcePermanent(m)
		got, err := permanent(m)
		if err != nil {
			t.Fatalf("permanent: %v", err)
		}
		if math.Abs(got-want) > 1e-9*math.Max(1, want) {
			t.Fatalf("trial %d (n=%d): Ryser %g vs brute force %g", trial, n, got, want)
		}
	}
}

func TestPermanentValidation(t *testing.T) {
	if _, err := permanent(matrix.MustNew(2, 3)); err == nil {
		t.Error("expected error for non-square")
	}
	big := matrix.MustNew(maxRyserDim+1, maxRyserDim+1)
	if _, err := permanent(big); err == nil {
		t.Error("expected error beyond size limit")
	}
}

func TestPermanentMinorExpansion(t *testing.T) {
	// per(A) = sum_j a[0][j] * per(A_{0,j}) — the Laplace-style expansion
	// underpinning JVV sampling.
	src := prng.New(44)
	n := 5
	m := matrix.MustNew(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, src.Float64())
		}
	}
	full, err := permanent(m)
	if err != nil {
		t.Fatalf("permanent: %v", err)
	}
	var expanded float64
	for j := 0; j < n; j++ {
		minor, err := permanentMinor(m, 0, j)
		if err != nil {
			t.Fatalf("permanentMinor: %v", err)
		}
		expanded += m.At(0, j) * minor
	}
	if math.Abs(full-expanded) > 1e-9*math.Max(1, full) {
		t.Errorf("expansion %g vs permanent %g", expanded, full)
	}
}

func BenchmarkPermanent12(b *testing.B) {
	src := prng.New(2)
	m := matrix.MustNew(12, 12)
	for i := 0; i < 12; i++ {
		for j := 0; j < 12; j++ {
			m.Set(i, j, src.Float64())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := permanent(m); err != nil {
			b.Fatal(err)
		}
	}
}
