package matrix

import (
	"fmt"
	"math"
	"math/big"
)

// LU holds an LU factorization with partial pivoting: P*A = L*U.
type LU struct {
	lu   *Matrix
	perm []int
	sign float64
}

// Factor computes the LU factorization with partial pivoting of a square
// matrix. It returns an error if the matrix is not square or is singular to
// working precision.
func Factor(a *Matrix) (*LU, error) {
	return newFactor(a, false)
}

// newFactor is the single entry point behind Factor and FactorScratch: it
// validates squareness, materializes the working copy (heap clone or
// scratch-pool draw), and runs the one shared elimination, factorInPlace.
func newFactor(a *Matrix, scratch bool) (*LU, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("matrix: LU of non-square %dx%d matrix", a.rows, a.cols)
	}
	var work *Matrix
	if scratch {
		work = Scratch(a.rows, a.cols)
		copy(work.data, a.data)
	} else {
		work = a.Clone()
	}
	f, err := factorInPlace(work)
	if err != nil && scratch {
		work.Release()
	}
	return f, err
}

// luPanel is the column-panel width of the blocked elimination. 32 columns
// keep a panel's U rows (32 x trailing) plus the 4-row multiplier stripes
// comfortably inside L1 during the trailing update.
const luPanel = 32

// factorInPlace runs the pivoted elimination destructively on lu, which the
// returned LU takes ownership of. Its operation order is the factorization's
// bit-exactness contract, the one the differential tests pin against a
// naive right-looking reference: at each column, pivot by first strict
// maximum of |entry| scanning down, swap full rows, divide to form
// multipliers, then subtract f*pivotRow from each lower row (skipping
// f == 0), so per element the updates land in ascending column order.
//
// The elimination is blocked by column panel. Each panel is factored with
// the unblocked algorithm restricted to its own columns (pivoting over full
// rows, so swaps land at exactly the unblocked schedule's points), then the
// deferred updates are applied to the trailing columns in ascending
// panel-column order: first the panel rows (the U12 block, a
// forward-substitution sweep), then the remaining rows (the A22 block),
// register-tiled. Every element still receives its update terms in
// ascending column order with the same multipliers and the same f == 0
// skips — the deferral only reorders work across elements, never within
// one.
func factorInPlace(lu *Matrix) (*LU, error) {
	n := lu.rows
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sign := 1.0
	for c0 := 0; c0 < n; c0 += luPanel {
		c1 := c0 + luPanel
		if c1 > n {
			c1 = n
		}
		// Panel factorization: unblocked elimination restricted to columns
		// [c0, c1), full-row pivot swaps, updates deferred for j >= c1.
		for col := c0; col < c1; col++ {
			p := col
			maxAbs := math.Abs(lu.At(col, col))
			for r := col + 1; r < n; r++ {
				if a := math.Abs(lu.At(r, col)); a > maxAbs {
					maxAbs = a
					p = r
				}
			}
			if maxAbs == 0 {
				return nil, fmt.Errorf("matrix: singular matrix in LU at column %d", col)
			}
			if p != col {
				rp, rc := lu.Row(p), lu.Row(col)
				for j := 0; j < n; j++ {
					rp[j], rc[j] = rc[j], rp[j]
				}
				perm[p], perm[col] = perm[col], perm[p]
				sign = -sign
			}
			pivot := lu.At(col, col)
			for r := col + 1; r < n; r++ {
				f := lu.At(r, col) / pivot
				lu.Set(r, col, f)
				if f == 0 {
					continue
				}
				rr, rc := lu.Row(r), lu.Row(col)
				for j := col + 1; j < c1; j++ {
					rr[j] -= f * rc[j]
				}
			}
		}
		if c1 == n {
			break
		}
		// U12: the panel rows' trailing columns, updates applied in the
		// ascending column order the unblocked schedule uses (row r receives
		// columns c0..r-1).
		for col := c0; col < c1; col++ {
			rc := lu.Row(col)
			for r := col + 1; r < c1; r++ {
				f := lu.At(r, col)
				if f == 0 {
					continue
				}
				rr := lu.Row(r)
				for j := c1; j < n; j++ {
					rr[j] -= f * rc[j]
				}
			}
		}
		// A22: each remaining row accumulates all panel columns' updates in
		// registers.
		for r := c1; r < n; r++ {
			trailingUpdateRow(lu, r, c0, c1, n)
		}
	}
	return &LU{lu: lu, perm: perm, sign: sign}, nil
}

// trailingUpdateRow applies the deferred panel updates to row r's trailing
// columns [c1, n): acc -= f_c * U[c][j] for panel columns c in ascending
// order, four j-columns per register tile. Per element this is exactly the
// unblocked schedule's update sequence for row r (steps c0..c1-1, f == 0
// skipped), so the result is bit-identical.
func trailingUpdateRow(lu *Matrix, r, c0, c1, n int) {
	rr := lu.Row(r)
	j := c1
	for ; j+4 <= n; j += 4 {
		acc0, acc1, acc2, acc3 := rr[j], rr[j+1], rr[j+2], rr[j+3]
		for c := c0; c < c1; c++ {
			f := rr[c]
			if f == 0 {
				continue
			}
			uc := lu.Row(c)
			acc0 -= f * uc[j]
			acc1 -= f * uc[j+1]
			acc2 -= f * uc[j+2]
			acc3 -= f * uc[j+3]
		}
		rr[j], rr[j+1], rr[j+2], rr[j+3] = acc0, acc1, acc2, acc3
	}
	for ; j < n; j++ {
		acc := rr[j]
		for c := c0; c < c1; c++ {
			f := rr[c]
			if f == 0 {
				continue
			}
			acc -= f * lu.At(c, j)
		}
		rr[j] = acc
	}
}

// Det returns the determinant from the factorization.
func (f *LU) Det() float64 {
	d := f.sign
	for i := 0; i < f.lu.rows; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// Solve solves A*x = b for one right-hand side.
func (f *LU) Solve(b []float64) ([]float64, error) {
	x := make([]float64, f.lu.rows)
	if err := f.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto solves A*x = b into a caller-provided solution vector — Solve
// without the per-call allocation, for repeated solves against one
// factorization (column sweeps in Schur elimination). x and b must be the
// identical slice (in-place solve) or fully disjoint; partially overlapping
// slices are not detected and corrupt the permutation step.
func (f *LU) SolveInto(x, b []float64) error {
	n := f.lu.rows
	if len(b) != n {
		return fmt.Errorf("matrix: solve rhs length %d, want %d", len(b), n)
	}
	if len(x) != n {
		return fmt.Errorf("matrix: solve destination length %d, want %d", len(x), n)
	}
	if &x[0] == &b[0] {
		// Permute in place: applying perm to an aliased buffer needs a cycle
		// walk; a scratch copy is simpler and still allocation-free for the
		// caller's steady state.
		tmp := Scratch(1, n)
		copy(tmp.data, b)
		for i := 0; i < n; i++ {
			x[i] = tmp.data[f.perm[i]]
		}
		tmp.Release()
	} else {
		for i := 0; i < n; i++ {
			x[i] = b[f.perm[i]]
		}
	}
	// Forward substitution with unit-diagonal L.
	for i := 1; i < n; i++ {
		row := f.lu.Row(i)
		var s float64
		for j := 0; j < i; j++ {
			s += row[j] * x[j]
		}
		x[i] -= s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Row(i)
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return nil
}

// FactorScratch is Factor with the factorization's working matrix drawn from
// the scratch pool; pair it with LU.Release when the factorization is
// transient (one elimination pass, then discarded).
func FactorScratch(a *Matrix) (*LU, error) {
	return newFactor(a, true)
}

// SolveBatchInto solves A*X = B for a whole batch of right-hand sides at
// once: the columns of b are independent systems and column j of x receives
// the solution of A*x = b[:,j]. Per column the substitutions perform exactly
// SolveInto's operation sequence (dot product accumulated in ascending index
// order, then one subtraction / one division), so the batch solve is
// bit-identical to column-by-column SolveInto calls — it amortizes the walk
// over the factorization's rows across the batch instead. x and b must be
// n x m with n the factored dimension; x may be b itself (in-place) but must
// not partially overlap it, and must not alias the factorization.
func (f *LU) SolveBatchInto(x, b *Matrix) error {
	n := f.lu.rows
	if b.rows != n {
		return fmt.Errorf("matrix: batch solve rhs is %dx%d, want %d rows", b.rows, b.cols, n)
	}
	if x.rows != n || x.cols != b.cols {
		return fmt.Errorf("matrix: batch solve destination is %dx%d, want %dx%d", x.rows, x.cols, n, b.cols)
	}
	if sameBacking(x, f.lu) || sameBacking(b, f.lu) {
		return fmt.Errorf("matrix: batch solve aliases the factorization")
	}
	// Row permutation: x[i] = b[perm[i]]. In place this needs a scratch copy,
	// exactly like SolveInto's aliased path.
	if sameBacking(x, b) {
		tmp := Scratch(n, x.cols)
		copy(tmp.data, b.data)
		for i := 0; i < n; i++ {
			copy(x.Row(i), tmp.Row(f.perm[i]))
		}
		tmp.Release()
	} else {
		for i := 0; i < n; i++ {
			copy(x.Row(i), b.Row(f.perm[i]))
		}
	}
	solveColumns(f.lu, x)
	return nil
}

// solveColumns runs forward and back substitution on every column of the
// already row-permuted x, four columns per register tile. Per column the
// arithmetic matches SolveInto exactly: the dot product accumulates in a
// register over ascending indices and is applied in one subtraction (forward)
// or folded into one division (back) — never term-by-term into memory, which
// would round differently.
func solveColumns(lu, x *Matrix) {
	n := lu.rows
	cols := x.cols
	j := 0
	for ; j+4 <= cols; j += 4 {
		// Forward substitution with unit-diagonal L.
		for i := 1; i < n; i++ {
			row := lu.Row(i)
			var s0, s1, s2, s3 float64
			for k := 0; k < i; k++ {
				l := row[k]
				xk := x.Row(k)
				s0 += l * xk[j]
				s1 += l * xk[j+1]
				s2 += l * xk[j+2]
				s3 += l * xk[j+3]
			}
			xi := x.Row(i)
			xi[j] -= s0
			xi[j+1] -= s1
			xi[j+2] -= s2
			xi[j+3] -= s3
		}
		// Back substitution with U.
		for i := n - 1; i >= 0; i-- {
			row := lu.Row(i)
			xi := x.Row(i)
			s0, s1, s2, s3 := xi[j], xi[j+1], xi[j+2], xi[j+3]
			for k := i + 1; k < n; k++ {
				u := row[k]
				xk := x.Row(k)
				s0 -= u * xk[j]
				s1 -= u * xk[j+1]
				s2 -= u * xk[j+2]
				s3 -= u * xk[j+3]
			}
			d := row[i]
			xi[j] = s0 / d
			xi[j+1] = s1 / d
			xi[j+2] = s2 / d
			xi[j+3] = s3 / d
		}
	}
	for ; j < cols; j++ {
		for i := 1; i < n; i++ {
			row := lu.Row(i)
			var s float64
			for k := 0; k < i; k++ {
				s += row[k] * x.At(k, j)
			}
			x.Set(i, j, x.At(i, j)-s)
		}
		for i := n - 1; i >= 0; i-- {
			row := lu.Row(i)
			s := x.At(i, j)
			for k := i + 1; k < n; k++ {
				s -= row[k] * x.At(k, j)
			}
			x.Set(i, j, s/row[i])
		}
	}
}

// Release returns the factorization's working matrix to the scratch pool.
// Only meaningful (and only safe) for transient factorizations the caller
// owns; the LU must not be used afterwards.
func (f *LU) Release() {
	if f == nil || f.lu == nil {
		return
	}
	f.lu.Release()
	f.lu = nil
}

// Det returns the determinant of a square matrix via LU factorization.
// Singular matrices yield 0.
func Det(a *Matrix) (float64, error) {
	if a.rows != a.cols {
		return 0, fmt.Errorf("matrix: Det of non-square %dx%d matrix", a.rows, a.cols)
	}
	f, err := Factor(a)
	if err != nil {
		// Exactly singular to working precision.
		return 0, nil
	}
	return f.Det(), nil
}

// Inverse returns the inverse of a square matrix. It returns an error if the
// matrix is singular.
func Inverse(a *Matrix) (*Matrix, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	n := a.rows
	inv := MustNew(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col, err := f.Solve(e)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv, nil
}

// Solve solves A*x = b via LU factorization.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// BigDet computes the exact determinant of an integer matrix using
// fraction-free Bareiss elimination over math/big integers.
//
// This is the engine behind exact Matrix-Tree spanning tree counts: the
// number of spanning trees of a graph is the determinant of any (n-1)x(n-1)
// principal minor of its Laplacian (Kirchhoff), and for ground-truth
// uniformity audits we need that count exactly, not in floating point.
func BigDet(a [][]int64) (*big.Int, error) {
	n := len(a)
	if n == 0 {
		return nil, fmt.Errorf("matrix: BigDet of empty matrix")
	}
	m := make([][]*big.Int, n)
	for i, row := range a {
		if len(row) != n {
			return nil, fmt.Errorf("matrix: BigDet of non-square input (row %d has %d cols, want %d)", i, len(row), n)
		}
		m[i] = make([]*big.Int, n)
		for j, v := range row {
			m[i][j] = big.NewInt(v)
		}
	}
	sign := 1
	prev := big.NewInt(1)
	for k := 0; k < n-1; k++ {
		// Pivot if needed.
		if m[k][k].Sign() == 0 {
			swapped := false
			for r := k + 1; r < n; r++ {
				if m[r][k].Sign() != 0 {
					m[k], m[r] = m[r], m[k]
					sign = -sign
					swapped = true
					break
				}
			}
			if !swapped {
				return big.NewInt(0), nil
			}
		}
		for i := k + 1; i < n; i++ {
			for j := k + 1; j < n; j++ {
				// m[i][j] = (m[i][j]*m[k][k] - m[i][k]*m[k][j]) / prev
				t1 := new(big.Int).Mul(m[i][j], m[k][k])
				t2 := new(big.Int).Mul(m[i][k], m[k][j])
				t1.Sub(t1, t2)
				t1.Quo(t1, prev)
				m[i][j] = t1
			}
		}
		prev = m[k][k]
	}
	det := new(big.Int).Set(m[n-1][n-1])
	if sign < 0 {
		det.Neg(det)
	}
	return det, nil
}
