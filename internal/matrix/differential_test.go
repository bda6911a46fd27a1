package matrix

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/prng"
)

// Differential kernel harness: an independent naive reference implementation
// of multiply and factorization (written from the bit-exactness contract, not
// from the production code), property-tested against the production kernels
// on awkward shapes — size 1, primes, tile boundaries and their neighbors —
// and on singular and near-singular inputs. The comparisons are bit-exact
// (math.Float64bits equality), never epsilon-close: the production kernels'
// contract is that register tiling and column panels reorder loops, not
// arithmetic. refMulInto and refFactor are the only oracle.

// refMulInto is the reference product: per output element (i, j), the terms
// a[i][k]*b[k][j] are added in ascending k, skipping terms with a[i][k] == 0.
func refMulInto(dst, a, b *Matrix) {
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Cols(); j++ {
			var s float64
			for k := 0; k < a.Cols(); k++ {
				if f := a.At(i, k); f != 0 {
					s += f * b.At(k, j)
				}
			}
			dst.Set(i, j, s)
		}
	}
}

// refFactor is the reference right-looking LU with partial pivoting: pivot
// by first strict maximum scanning down, swap full rows, form multipliers,
// subtract f*pivotRow from lower rows skipping f == 0.
func refFactor(a *Matrix) (ref *Matrix, perm []int, sign float64, ok bool) {
	n := a.Rows()
	ref = a.Clone()
	perm = make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sign = 1.0
	for col := 0; col < n; col++ {
		p := col
		maxAbs := math.Abs(ref.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(ref.At(r, col)); v > maxAbs {
				maxAbs = v
				p = r
			}
		}
		if maxAbs == 0 {
			return nil, nil, 0, false
		}
		if p != col {
			for j := 0; j < n; j++ {
				vp, vc := ref.At(p, j), ref.At(col, j)
				ref.Set(p, j, vc)
				ref.Set(col, j, vp)
			}
			perm[p], perm[col] = perm[col], perm[p]
			sign = -sign
		}
		pivot := ref.At(col, col)
		for r := col + 1; r < n; r++ {
			f := ref.At(r, col) / pivot
			ref.Set(r, col, f)
			if f == 0 {
				continue
			}
			for j := col + 1; j < n; j++ {
				ref.Set(r, j, ref.At(r, j)-f*ref.At(col, j))
			}
		}
	}
	return ref, perm, sign, true
}

// awkwardSizes are the shapes most likely to expose blocking bugs: size 1,
// primes, the 4-row / 2-col multiply tile and 32-col LU panel boundaries,
// and their off-by-one neighbors.
var awkwardSizes = []int{1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17, 31, 32, 33, 63, 64, 65, 97, 127, 128, 129, 191, 257}

// randomDense fills an r x c matrix with signed values and a sprinkling of
// exact zeros, so the f == 0 skip path is exercised on every size.
func randomDense(t *testing.T, rows, cols int, src *prng.Source) *Matrix {
	t.Helper()
	m := MustNew(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			switch src.Uint64() % 8 {
			case 0:
				m.Set(i, j, 0)
			case 1:
				m.Set(i, j, -src.Float64())
			default:
				m.Set(i, j, src.Float64())
			}
		}
	}
	return m
}

func requireBitEqual(t *testing.T, label string, got, want *Matrix) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i := 0; i < want.Rows(); i++ {
		for j := 0; j < want.Cols(); j++ {
			g, w := got.At(i, j), want.At(i, j)
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: entry (%d,%d) = %x, want %x (values %g vs %g)",
					label, i, j, math.Float64bits(g), math.Float64bits(w), g, w)
			}
		}
	}
}

// blockedKernel names the subtest that runs the production kernel: the
// register-tiled, column-panelled ("blocked") multiply and factorization.
const blockedKernel = "blocked"

// TestDifferentialMulKernels pins every multiply path on rectangular shapes,
// including odd and prime dimensions, bit-exactly to the naive reference.
func TestDifferentialMulKernels(t *testing.T) {
	src := prng.New(0xd1ff)
	t.Run(blockedKernel, func(t *testing.T) {
		for _, n := range awkwardSizes {
			// Rectangular: (n x inner) * (inner x cols) with shifted dims so
			// row-remainder, col-remainder, and inner loops all vary.
			inner := n + 1
			cols := n + 2
			a := randomDense(t, n, inner, src)
			b := randomDense(t, inner, cols, src)
			want := MustNew(n, cols)
			refMulInto(want, a, b)

			got, err := a.Mul(b)
			if err != nil {
				t.Fatalf("n=%d: Mul: %v", n, err)
			}
			requireBitEqual(t, "Mul", got, want)

			dst := randomDense(t, n, cols, src) // dirty destination
			if err := MulInto(dst, a, b); err != nil {
				t.Fatalf("n=%d: MulInto: %v", n, err)
			}
			requireBitEqual(t, "MulInto", dst, want)
		}
	})
}

// requireFactorEqual checks a factorization against the reference's packed
// LU values, permutation, and determinant sign.
func requireFactorEqual(t *testing.T, label string, f *LU, want *Matrix, wantPerm []int, wantSign float64) {
	t.Helper()
	requireBitEqual(t, label, f.lu, want)
	if f.sign != wantSign {
		t.Fatalf("%s: sign %g, want %g", label, f.sign, wantSign)
	}
	for i, p := range wantPerm {
		if f.perm[i] != p {
			t.Fatalf("%s: perm[%d] = %d, want %d", label, i, f.perm[i], p)
		}
	}
}

// TestDifferentialFactorKernels pins Factor and FactorScratch bit-exactly to
// the reference elimination: identical packed LU values, permutation, and
// determinant sign.
func TestDifferentialFactorKernels(t *testing.T) {
	src := prng.New(0xfac7)
	t.Run(blockedKernel, func(t *testing.T) {
		for _, n := range awkwardSizes {
			a := randomDense(t, n, n, src)
			// Dominate the diagonal so the instance is comfortably nonsingular.
			for i := 0; i < n; i++ {
				a.Set(i, i, a.At(i, i)+float64(n))
			}
			want, wantPerm, wantSign, ok := refFactor(a)
			if !ok {
				t.Fatalf("n=%d: reference factorization unexpectedly singular", n)
			}
			f, err := Factor(a)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			requireFactorEqual(t, fmt.Sprintf("Factor n=%d", n), f, want, wantPerm, wantSign)
			fs, err := FactorScratch(a)
			if err != nil {
				t.Fatalf("n=%d: scratch: %v", n, err)
			}
			requireFactorEqual(t, fmt.Sprintf("FactorScratch n=%d", n), fs, want, wantPerm, wantSign)
			fs.Release()
		}
	})
}

// TestDifferentialFactorSingular checks that Factor rejects exactly the
// input the reference elimination finds singular.
func TestDifferentialFactorSingular(t *testing.T) {
	src := prng.New(0x5146)
	t.Run(blockedKernel, func(t *testing.T) {
		for _, n := range []int{1, 2, 5, 33, 65} {
			for trial := 0; trial < 3; trial++ {
				a := randomDense(t, n, n, src)
				switch trial {
				case 0: // zero column
					for i := 0; i < n; i++ {
						a.Set(i, n/2, 0)
					}
				case 1: // duplicate row
					if n > 1 {
						copy(a.Row(n-1), a.Row(0))
					} else {
						a.Set(0, 0, 0)
					}
				case 2: // zero row
					for j := 0; j < n; j++ {
						a.Set(n/2, j, 0)
					}
				}
				_, _, _, ok := refFactor(a)
				_, err := Factor(a)
				if ok {
					// Exact duplicate rows eliminate to an exactly zero pivot,
					// so ok here means the trial did not actually produce
					// singularity; the kernel must then factor it too.
					if err != nil {
						t.Fatalf("n=%d trial=%d: reference factored but kernel errored: %v", n, trial, err)
					}
					continue
				}
				if err == nil {
					t.Fatalf("n=%d trial=%d: reference singular but kernel accepted", n, trial)
				}
				if !strings.Contains(err.Error(), "singular") {
					t.Fatalf("n=%d trial=%d: unexpected error %q", n, trial, err)
				}
			}
		}
	})
}

// TestDifferentialFactorNearSingular factors nearly singular matrices (a
// duplicate row perturbed at one entry by ~1e-13) and requires bit-exact
// agreement with the reference — near-singularity amplifies any reordering
// of the elimination arithmetic, which is exactly what must not exist.
func TestDifferentialFactorNearSingular(t *testing.T) {
	src := prng.New(0xaea5)
	for _, n := range []int{2, 3, 17, 33, 64, 97} {
		a := randomDense(t, n, n, src)
		copy(a.Row(n-1), a.Row(0))
		a.Set(n-1, n/2, a.At(n-1, n/2)+1e-13)
		want, wantPerm, wantSign, ok := refFactor(a)
		if !ok {
			continue // collapsed to exact singularity; covered above
		}
		f, err := Factor(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		requireFactorEqual(t, fmt.Sprintf("near-singular LU n=%d", n), f, want, wantPerm, wantSign)
	}
}

// TestDifferentialSolveBatch pins SolveBatchInto — aliased and disjoint
// destinations — bit-exactly to column-by-column SolveInto over a
// factorization that is itself pinned to the reference.
func TestDifferentialSolveBatch(t *testing.T) {
	src := prng.New(0xba7c)
	t.Run(blockedKernel, func(t *testing.T) {
		for _, n := range []int{1, 2, 3, 5, 17, 33, 64, 97} {
			for _, m := range []int{1, 2, 3, 4, 5, 9, 31} {
				a := randomDense(t, n, n, src)
				for i := 0; i < n; i++ {
					a.Set(i, i, a.At(i, i)+float64(n))
				}
				b := randomDense(t, n, m, src)
				f, err := Factor(a)
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				want := MustNew(n, m)
				col := make([]float64, n)
				out := make([]float64, n)
				for j := 0; j < m; j++ {
					for i := 0; i < n; i++ {
						col[i] = b.At(i, j)
					}
					if err := f.SolveInto(out, col); err != nil {
						t.Fatalf("n=%d col=%d: %v", n, j, err)
					}
					for i := 0; i < n; i++ {
						want.Set(i, j, out[i])
					}
				}
				x := MustNew(n, m)
				if err := f.SolveBatchInto(x, b); err != nil {
					t.Fatalf("n=%d m=%d: %v", n, m, err)
				}
				requireBitEqual(t, "SolveBatchInto", x, want)
				// Aliased in-place batch solve.
				inPlace := b.Clone()
				if err := f.SolveBatchInto(inPlace, inPlace); err != nil {
					t.Fatalf("n=%d m=%d aliased: %v", n, m, err)
				}
				requireBitEqual(t, "SolveBatchInto aliased", inPlace, want)
			}
		}
	})
}

// TestDifferentialMulSpecialValues drives Inf, NaN, and negative zero
// through the multiply kernel: a branchless kernel would turn skipped
// 0*Inf terms into NaNs, so this is the contract's sharpest edge. NaN
// entries are compared as "both NaN" rather than by payload — IEEE addition
// does not specify which operand's NaN payload propagates, so the payload
// bits depend on the compiler's operand ordering, not on the kernel's term
// ordering. Every non-NaN entry (including Inf and the sign of zero) must
// still match bit for bit.
func TestDifferentialMulSpecialValues(t *testing.T) {
	a := MustNew(5, 6)
	b := MustNew(6, 7)
	vals := []float64{0, 1.5, math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 2e-308}
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			a.Set(i, j, vals[(i*a.Cols()+j)%len(vals)])
		}
	}
	for i := 0; i < b.Rows(); i++ {
		for j := 0; j < b.Cols(); j++ {
			b.Set(i, j, vals[(i*b.Cols()+j+3)%len(vals)])
		}
	}
	want := MustNew(5, 7)
	refMulInto(want, a, b)
	got := MustNew(5, 7)
	if err := MulInto(got, a, b); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < want.Rows(); i++ {
		for j := 0; j < want.Cols(); j++ {
			g, w := got.At(i, j), want.At(i, j)
			if math.IsNaN(w) {
				if !math.IsNaN(g) {
					t.Fatalf("entry (%d,%d) = %g, want NaN", i, j, g)
				}
				continue
			}
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("entry (%d,%d) = %x, want %x", i, j, math.Float64bits(g), math.Float64bits(w))
			}
		}
	}
}
