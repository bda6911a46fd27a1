package matrix

import (
	"fmt"
	"math"
	"math/big"
)

// LU holds an LU factorization with partial pivoting: P*A = L*U, with the
// unit-lower L and the upper U packed into one matrix.
type LU struct {
	lu   *Matrix
	perm []int
	sign float64
}

// Factor computes the LU factorization with partial pivoting of a square
// matrix in place: the returned LU owns a's storage until Release, and the
// caller must not use a afterwards (pass a.Clone() to keep it). It returns
// an error, and releases a, if a is not square or is singular to working
// precision.
//
// The elimination's operation order is its bit-exactness contract, the one
// the differential tests pin against a naive right-looking reference: at
// each column, pivot by first strict maximum of |entry| scanning down, swap
// full rows, divide to form multipliers, then subtract f*pivotRow from each
// lower row (skipping f == 0), one multiply and one subtraction per element.
// The absorbing-chain systems of a sparse graph leave most multipliers zero,
// so most rows receive no update at all.
func Factor(a *Matrix) (*LU, error) {
	if a.rows != a.cols {
		err := fmt.Errorf("matrix: LU of non-square %dx%d matrix", a.rows, a.cols)
		a.Release()
		return nil, err
	}
	n := a.rows
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sign := 1.0
	for col := 0; col < n; col++ {
		p := col
		maxAbs := math.Abs(a.At(col, col))
		for r, i := col+1, (col+1)*n+col; r < n; r, i = r+1, i+n {
			if v := math.Abs(a.data[i]); v > maxAbs {
				maxAbs = v
				p = r
			}
		}
		if maxAbs == 0 {
			a.Release()
			return nil, fmt.Errorf("matrix: singular matrix in LU at column %d", col)
		}
		if p != col {
			rp, rc := a.Row(p), a.Row(col)
			for j := 0; j < n; j++ {
				rp[j], rc[j] = rc[j], rp[j]
			}
			perm[p], perm[col] = perm[col], perm[p]
			sign = -sign
		}
		pivot := a.At(col, col)
		nanPivot := math.IsNaN(pivot)
		u := a.Row(col)[col+1:]
		// Walk column col down from row col+1: i indexes (r, col).
		for i := (col+1)*n + col; i < len(a.data); i += n {
			v := a.data[i]
			if v == 0 && !nanPivot {
				// A zero over any pivot but NaN divides to the zero whose
				// sign is the product of the two signs, and a zero
				// multiplier updates nothing; skip the division.
				if pivot < 0 {
					a.data[i] = -v
				}
				continue
			}
			f := v / pivot
			a.data[i] = f
			if f != 0 {
				subScaled(a.data[i+1:i+1+len(u)], u, f)
			}
		}
	}
	return &LU{lu: a, perm: perm, sign: sign}, nil
}

// subScaled computes x[j] -= f*u[j], one multiply and one subtraction per
// element, each rounded. With AVX the whole groups of four go through
// subScaledAVX; without it the Go loop takes them, four per iteration. The
// Go loop takes the remainder on every path.
func subScaled(x, u []float64, f float64) {
	u = u[:len(x)]
	j := 0
	if w := len(x) &^ 3; useAVX && w > 0 {
		subScaledAVX(&x[0], &u[0], f, w)
		j = w
	}
	for ; j+4 <= len(x); j += 4 {
		x[j] -= f * u[j]
		x[j+1] -= f * u[j+1]
		x[j+2] -= f * u[j+2]
		x[j+3] -= f * u[j+3]
	}
	for ; j < len(x); j++ {
		x[j] -= f * u[j]
	}
}

// SolveBatchInto solves A*X = B for a whole batch of right-hand sides at
// once: the columns of b are independent systems and column j of x receives
// the solution of A*x = b[:,j]. Per column the substitutions run one fixed
// sequence: forward, s = sum of L[i][k]*x[k] from +0 over ascending k < i,
// then x[i] -= s; back, s = x[i], s -= U[i][k]*x[k] over ascending k > i,
// then x[i] = s / U[i][i]. So a batched column is bit-identical to solving
// it alone, and the batch amortizes the walk over the factorization's rows.
// x and b must be n x m with n the factored dimension; x may be b itself
// (in-place) but must not partially overlap it, and must not alias the
// factorization.
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
	// Row permutation: x[i] = b[perm[i]]. In place this needs a scratch copy.
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
// already row-permuted x, in SolveBatchInto's per-column sequence: the dot
// product accumulates in a register over ascending indices and is applied in
// one subtraction (forward) or folded into one division (back) — never
// term-by-term into memory, which would round differently.
func solveColumns(lu, x *Matrix) {
	if useAVX {
		solveColumnsAVX(lu, x)
		return
	}
	solveColumnsGo(lu, x)
}

// avxSolveTile is the AVX solve's column tile: four YMM registers, one lane
// per column.
const avxSolveTile = 16

// solveColumnsAVX substitutes 16 columns per tile, one lane per column,
// each lane running SolveBatchInto's sequence. The remaining columns go through
// one tile on a zero-padded scratch copy: the solve is in place, so a tile
// shifted back over already-solved columns would solve them twice.
func solveColumnsAVX(lu, x *Matrix) {
	n, cols := lu.rows, x.cols
	j := 0
	for ; j+avxSolveTile <= cols; j += avxSolveTile {
		solve16AVX(&lu.data[0], &x.data[j], n, n, cols)
	}
	if j == cols {
		return
	}
	pad := Scratch(n, avxSolveTile)
	for i := 0; i < n; i++ {
		copy(pad.Row(i), x.Row(i)[j:])
	}
	solve16AVX(&lu.data[0], &pad.data[0], n, n, avxSolveTile)
	for i := 0; i < n; i++ {
		copy(x.Row(i)[j:], pad.Row(i))
	}
	pad.Release()
}

// solveColumnsGo is the portable path: four columns per register tile.
func solveColumnsGo(lu, x *Matrix) {
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
