package matrix

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/prng"
)

func randomMatrix(r, c int, src *prng.Source) *Matrix {
	m := MustNew(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, src.Float64()*2-1)
		}
	}
	return m
}

func randomStochastic(n int, src *prng.Source) *Matrix {
	m := MustNew(n, n)
	for i := 0; i < n; i++ {
		var s float64
		row := m.Row(i)
		for j := range row {
			row[j] = src.Float64() + 0.01
			s += row[j]
		}
		for j := range row {
			row[j] /= s
		}
	}
	return m
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 3); err == nil {
		t.Error("expected error for 0 rows")
	}
	if _, err := New(3, -1); err == nil {
		t.Error("expected error for negative cols")
	}
	m, err := New(2, 3)
	if err != nil || m.Rows() != 2 || m.Cols() != 3 {
		t.Errorf("New(2,3) = %v, %v", m, err)
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatalf("FromRows: %v", err)
	}
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %g, want 3", m.At(1, 0))
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("expected error for ragged rows")
	}
	if _, err := FromRows(nil); err == nil {
		t.Error("expected error for empty input")
	}
}

func TestMulKnown(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := a.Mul(b)
	if err != nil {
		t.Fatalf("Mul: %v", err)
	}
	want, _ := FromRows([][]float64{{19, 22}, {43, 50}})
	if !c.Equal(want, 1e-12) {
		t.Errorf("Mul = %v, want %v", c, want)
	}
}

func TestMulShapeMismatch(t *testing.T) {
	a := MustNew(2, 3)
	b := MustNew(2, 3)
	if _, err := a.Mul(b); err == nil {
		t.Error("expected inner-dimension error")
	}
}

func TestMulAgainstNaive(t *testing.T) {
	src := prng.New(1)
	for trial := 0; trial < 10; trial++ {
		a := randomMatrix(7, 5, src)
		b := randomMatrix(5, 9, src)
		got, err := a.Mul(b)
		if err != nil {
			t.Fatalf("Mul: %v", err)
		}
		want := MustNew(7, 9)
		for i := 0; i < 7; i++ {
			for j := 0; j < 9; j++ {
				var s float64
				for k := 0; k < 5; k++ {
					s += a.At(i, k) * b.At(k, j)
				}
				want.Set(i, j, s)
			}
		}
		if !got.Equal(want, 1e-10) {
			t.Fatalf("trial %d: ikj product disagrees with naive", trial)
		}
	}
}

// MulVec returns the matrix-vector product m*v: the residual oracle of the
// Solve tests.
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	if m.cols != len(v) {
		return nil, fmt.Errorf("matrix: cannot multiply %dx%d by vector of length %d", m.rows, m.cols, len(v))
	}
	out := make([]float64, m.rows)
	for i := range out {
		for j, a := range m.Row(i) {
			out[i] += a * v[j]
		}
	}
	return out, nil
}

func TestMulVecAndVecMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mv, err := a.MulVec([]float64{1, 1, 1})
	if err != nil {
		t.Fatalf("MulVec: %v", err)
	}
	if mv[0] != 6 || mv[1] != 15 {
		t.Errorf("MulVec = %v, want [6 15]", mv)
	}
	if _, err := a.MulVec([]float64{1}); err == nil {
		t.Error("expected length mismatch error")
	}
}

func TestSubmatrix(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s, err := m.Submatrix([]int{0, 2}, []int{1, 2})
	if err != nil {
		t.Fatalf("Submatrix: %v", err)
	}
	want, _ := FromRows([][]float64{{2, 3}, {8, 9}})
	if !s.Equal(want, 0) {
		t.Errorf("Submatrix = %v, want %v", s, want)
	}
	if _, err := m.Submatrix([]int{3}, []int{0}); err == nil {
		t.Error("expected out-of-range row error")
	}
	if _, err := m.Submatrix([]int{0}, []int{-1}); err == nil {
		t.Error("expected out-of-range col error")
	}
	if _, err := m.Submatrix(nil, []int{0}); err == nil {
		t.Error("expected empty index error")
	}
}

func TestPowSmall(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 1}, {0, 1}})
	p, err := m.Pow(5)
	if err != nil {
		t.Fatalf("Pow: %v", err)
	}
	if p.At(0, 1) != 5 {
		t.Errorf("([[1,1],[0,1]])^5 upper right = %g, want 5", p.At(0, 1))
	}
	p0, err := m.Pow(0)
	if err != nil {
		t.Fatalf("Pow(0): %v", err)
	}
	if !p0.Equal(Identity(2), 0) {
		t.Error("Pow(0) is not the identity")
	}
	if _, err := m.Pow(-1); err == nil {
		t.Error("expected error for negative exponent")
	}
	if _, err := MustNew(2, 3).Pow(2); err == nil {
		t.Error("expected error for non-square")
	}
}

func TestPowMatchesIterated(t *testing.T) {
	src := prng.New(4)
	m := randomStochastic(6, src)
	p7, err := m.Pow(7)
	if err != nil {
		t.Fatalf("Pow: %v", err)
	}
	it := Identity(6)
	for i := 0; i < 7; i++ {
		it, _ = it.Mul(m)
	}
	if !p7.Equal(it, 1e-10) {
		t.Error("Pow(7) differs from iterated multiplication")
	}
}

func TestStochasticPowerStaysStochastic(t *testing.T) {
	src := prng.New(6)
	m := randomStochastic(8, src)
	p, err := m.Pow(16)
	if err != nil {
		t.Fatalf("Pow: %v", err)
	}
	if !p.IsStochastic(1e-9) {
		t.Error("power of stochastic matrix is not stochastic")
	}
}

func TestTruncateDownSubtractive(t *testing.T) {
	// Property of Lemma 7's round(.): error is subtractive and < delta.
	src := prng.New(8)
	m := randomStochastic(10, src)
	orig := m.Clone()
	const delta = 1e-4
	m.TruncateDown(delta)
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			d := orig.At(i, j) - m.At(i, j)
			if d < 0 || d >= delta+1e-15 {
				t.Fatalf("entry (%d,%d): error %g not in [0, %g)", i, j, d, delta)
			}
		}
	}
}

func TestPowerDyadicExact(t *testing.T) {
	src := prng.New(3)
	m := randomStochastic(5, src)
	pd, err := NewPowerDyadic(m, 4, 0)
	if err != nil {
		t.Fatalf("NewPowerDyadic: %v", err)
	}
	p8, err := pd.Power(8)
	if err != nil {
		t.Fatalf("Power(8): %v", err)
	}
	want, _ := m.Pow(8)
	if !p8.Equal(want, 1e-10) {
		t.Error("dyadic table power 8 differs from Pow(8)")
	}
	if _, err := pd.Power(3); err == nil {
		t.Error("expected error for non-power-of-two exponent")
	}
	if _, err := pd.Power(32); err == nil {
		t.Error("expected error for exponent beyond table")
	}
	if _, err := pd.Power(0); err == nil {
		t.Error("expected error for zero exponent")
	}
}

// TestPowerDyadicLemma7Error verifies the quantitative content of Lemma 7:
// computing M^k with per-squaring truncation to multiples of delta yields a
// subtractive error bounded by delta * k^c * polylog factors. We check the
// weaker but concrete bound E(k) <= delta * (n+1)^log2(k) used in the
// lemma's recurrence E(k) <= (n+1) E(k/2) + delta.
func TestPowerDyadicLemma7Error(t *testing.T) {
	src := prng.New(12)
	n := 8
	m := randomStochastic(n, src)
	const delta = 1e-9
	maxExp := 6 // up to M^64
	exact, err := NewPowerDyadic(m, maxExp, 0)
	if err != nil {
		t.Fatalf("exact table: %v", err)
	}
	approx, err := NewPowerDyadic(m, maxExp, delta)
	if err != nil {
		t.Fatalf("approx table: %v", err)
	}
	bound := delta
	for e := 0; e <= maxExp; e++ {
		diff := 0.0
		under := true
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				d := exact.Pows[e].At(i, j) - approx.Pows[e].At(i, j)
				if d < -1e-15 {
					under = false
				}
				if d > diff {
					diff = d
				}
			}
		}
		if !under {
			t.Errorf("exponent 2^%d: approximation exceeded the true power (must be subtractive)", e)
		}
		if diff > bound {
			t.Errorf("exponent 2^%d: subtractive error %g above Lemma 7 recurrence bound %g", e, diff, bound)
		}
		bound = bound*float64(n+1) + delta
	}
}

// det returns the determinant of a square matrix from the LU factorization
// of a copy, or 0 if it is singular to working precision.
func det(a *Matrix) float64 {
	f, err := Factor(a.Clone())
	if err != nil {
		return 0
	}
	d := f.sign
	for i := 0; i < f.lu.rows; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// solve solves A*x = b from the LU factorization of a copy of a.
func solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := Factor(a.Clone())
	if err != nil {
		return nil, err
	}
	x := make([]float64, len(b))
	f.solveInto(x, b)
	return x, nil
}

func TestDetKnown(t *testing.T) {
	m, _ := FromRows([][]float64{{4, 3}, {6, 3}})
	if d := det(m); math.Abs(d-(-6)) > 1e-12 {
		t.Errorf("det = %g, want -6", d)
	}
	sing, _ := FromRows([][]float64{{1, 2}, {2, 4}})
	if d := det(sing); d != 0 {
		t.Errorf("det(singular) = %g, want 0", d)
	}
}

func TestSolveAndInverse(t *testing.T) {
	a, _ := FromRows([][]float64{{2, 1, 0}, {1, 3, 1}, {0, 1, 4}})
	x, err := solve(a, []float64{3, 10, 14})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	// Verify A*x = b.
	b, _ := a.MulVec(x)
	for i, v := range []float64{3, 10, 14} {
		if math.Abs(b[i]-v) > 1e-10 {
			t.Errorf("residual at %d: %g vs %g", i, b[i], v)
		}
	}
	// Solving against each unit vector from one factorization inverts A.
	f, err := Factor(a.Clone())
	if err != nil {
		t.Fatalf("Factor: %v", err)
	}
	inv := MustNew(3, 3)
	col := make([]float64, 3)
	for j := 0; j < 3; j++ {
		e := make([]float64, 3)
		e[j] = 1
		f.solveInto(col, e)
		for i, v := range col {
			inv.Set(i, j, v)
		}
	}
	prod, _ := a.Mul(inv)
	if !prod.Equal(Identity(3), 1e-10) {
		t.Error("A * A^-1 != I")
	}
}

func TestSolveRandomProperty(t *testing.T) {
	f := func(seed uint64) bool {
		src := prng.New(seed)
		n := 4 + src.Intn(5)
		a := randomMatrix(n, n, src)
		// Diagonal dominance ensures invertibility.
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n)+1)
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = src.Float64()*4 - 2
		}
		b, err := a.MulVec(want)
		if err != nil {
			return false
		}
		got, err := solve(a, b)
		if err != nil {
			return false
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBigDetKnown(t *testing.T) {
	d, err := BigDet([][]int64{{4, 3}, {6, 3}})
	if err != nil {
		t.Fatalf("BigDet: %v", err)
	}
	if d.Int64() != -6 {
		t.Errorf("BigDet = %v, want -6", d)
	}
	// Laplacian minor of K4: number of spanning trees = 4^{4-2} = 16
	// (Cayley). Minor of L(K4) deleting last row/col:
	d, err = BigDet([][]int64{{3, -1, -1}, {-1, 3, -1}, {-1, -1, 3}})
	if err != nil {
		t.Fatalf("BigDet: %v", err)
	}
	if d.Int64() != 16 {
		t.Errorf("spanning trees of K4 = %v, want 16", d)
	}
}

func TestBigDetValidation(t *testing.T) {
	if _, err := BigDet(nil); err == nil {
		t.Error("expected error for empty matrix")
	}
	if _, err := BigDet([][]int64{{1, 2}, {3}}); err == nil {
		t.Error("expected error for ragged matrix")
	}
	d, err := BigDet([][]int64{{0, 0}, {0, 0}})
	if err != nil || d.Sign() != 0 {
		t.Errorf("BigDet(zero) = %v, %v; want 0", d, err)
	}
}

func TestBigDetMatchesFloatDet(t *testing.T) {
	src := prng.New(21)
	for trial := 0; trial < 10; trial++ {
		n := 3 + src.Intn(4)
		ints := make([][]int64, n)
		m := MustNew(n, n)
		for i := range ints {
			ints[i] = make([]int64, n)
			for j := range ints[i] {
				v := int64(src.Intn(11) - 5)
				ints[i][j] = v
				m.Set(i, j, float64(v))
			}
		}
		bd, err := BigDet(ints)
		if err != nil {
			t.Fatalf("BigDet: %v", err)
		}
		fd := det(m)
		if math.Abs(fd-float64(bd.Int64())) > 1e-6*math.Max(1, math.Abs(fd)) {
			t.Fatalf("trial %d: BigDet %v vs det %g", trial, bd, fd)
		}
	}
}

func TestRowColAccessors(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	m.Row(1)[0] = 5
	if m.At(1, 0) != 5 {
		t.Error("Row does not share matrix storage")
	}
	sums := m.RowSums()
	if sums[0] != 3 || sums[1] != 9 {
		t.Errorf("RowSums = %v, want [3 9]", sums)
	}
}

func TestIsStochastic(t *testing.T) {
	m, _ := FromRows([][]float64{{0.5, 0.5}, {0.25, 0.75}})
	if !m.IsStochastic(1e-12) {
		t.Error("stochastic matrix rejected")
	}
	bad, _ := FromRows([][]float64{{0.5, 0.6}, {0.25, 0.75}})
	if bad.IsStochastic(1e-12) {
		t.Error("non-stochastic matrix accepted")
	}
	neg, _ := FromRows([][]float64{{-0.5, 1.5}, {0.25, 0.75}})
	if neg.IsStochastic(1e-12) {
		t.Error("negative-entry matrix accepted")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{1, 2.5}, {3, 4}})
	d, err := a.MaxAbsDiff(b)
	if err != nil || d != 0.5 {
		t.Errorf("MaxAbsDiff = %g, %v; want 0.5, nil", d, err)
	}
	if _, err := a.MaxAbsDiff(MustNew(3, 3)); err == nil {
		t.Error("expected shape mismatch error")
	}
}

// BenchmarkMul squares an n x n stochastic matrix, as one power-table step
// does, on every kernel path this host supports.
func BenchmarkMul(b *testing.B) {
	savedAVX, savedAVX512 := useAVX, useAVX512
	defer func() { useAVX, useAVX512 = savedAVX, savedAVX512 }()
	for _, n := range []int{64, 96, 192} {
		m := randomStochastic(n, prng.New(1))
		out := MustNew(n, n)
		for _, path := range kernelPaths {
			b.Run(fmt.Sprintf("n=%d/%s", n, path.name), func(b *testing.B) {
				if !path.supported {
					b.Skipf("no %s on this host", path.name)
				}
				useAVX, useAVX512 = path.avx, path.avx512
				for i := 0; i < b.N; i++ {
					if err := MulInto(out, m, m); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAllFinite scans an n x n finite matrix, as the multiply does
// before it picks a tile, on every kernel path this host supports.
func BenchmarkAllFinite(b *testing.B) {
	savedAVX, savedAVX512 := useAVX, useAVX512
	defer func() { useAVX, useAVX512 = savedAVX, savedAVX512 }()
	for _, n := range []int{64, 96, 192} {
		m := randomStochastic(n, prng.New(1))
		for _, path := range kernelPaths {
			b.Run(fmt.Sprintf("n=%d/%s", n, path.name), func(b *testing.B) {
				if !path.supported {
					b.Skipf("no %s on this host", path.name)
				}
				useAVX, useAVX512 = path.avx, path.avx512
				for i := 0; i < b.N; i++ {
					if !allFinite(m.data) {
						b.Fatal("finite matrix reported non-finite")
					}
				}
			})
		}
	}
}
