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
// contract is that register tiling reorders loops, not arithmetic.
// refMulInto and refFactor are the only oracle, and solveInto, the
// one-column solve the batched solve is pinned to, runs on a factorization
// pinned to refFactor.

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

// solveInto solves A*x = b for one right-hand side against the
// factorization: permute b, then forward substitution with the unit-lower L
// and back substitution with U, each dot product accumulated from +0 (or
// from x[i]) over ascending indices and applied in one subtraction or one
// division. x may be b itself.
func (f *LU) solveInto(x, b []float64) {
	n := f.lu.rows
	pb := make([]float64, n)
	for i := range pb {
		pb[i] = b[f.perm[i]]
	}
	copy(x, pb)
	for i := 1; i < n; i++ {
		row := f.lu.Row(i)
		var s float64
		for j := 0; j < i; j++ {
			s += row[j] * x[j]
		}
		x[i] -= s
	}
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Row(i)
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
}

// awkwardSizes are the shapes most likely to expose blocking bugs: size 1,
// primes, the multiply tiles' boundaries (4x2 on the Go path, 4x8 and 4x16
// on the AVX paths), the 32-col LU panel boundary, and their off-by-one
// neighbors.
var awkwardSizes = []int{1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17, 31, 32, 33, 63, 64, 65, 97, 127, 128, 129, 191, 257}

// randomDense fills an r x c matrix with signed values and a sprinkling of
// exact zeros of both signs and tiny values (the smallest subnormal and a
// value near the normal boundary, whose products underflow to signed zeros),
// all finite. So on every size the Go kernel's f == 0 branch runs, and the
// AVX tiles add the ±0 terms the finiteness rule lets them add unmasked.
func randomDense(t *testing.T, rows, cols int, src *prng.Source) *Matrix {
	t.Helper()
	m := MustNew(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			switch src.Uint64() % 16 {
			case 0, 1:
				m.Set(i, j, 0)
			case 2:
				m.Set(i, j, math.Copysign(0, -1))
			case 3:
				m.Set(i, j, 5e-324)
			case 4:
				m.Set(i, j, 2e-308)
			case 5, 6:
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

// The kernel paths, named as Kernel names them except for the Go one:
// blockedKernel runs the portable Go kernels, the register-tiled,
// column-panelled ("blocked") multiply, factorization and batched solve;
// avxKernel the AVX tiles (the 4x8 YMM multiply and the batched solve; the
// factorization has one path); avx512Kernel the same with the 4x16 ZMM
// multiply tile.
const (
	blockedKernel = "blocked"
	avxKernel     = "avx"
	avx512Kernel  = "avx512"
)

// kernelPaths lists the kernel paths with the useAVX and useAVX512 settings
// that select each, and whether this host supports it.
var kernelPaths = []struct {
	name        string
	avx, avx512 bool
	supported   bool
}{
	{blockedKernel, false, false, true},
	{avxKernel, true, false, haveAVX},
	{avx512Kernel, true, true, haveAVX512},
}

// forEachKernel runs fn as one subtest per kernel path. A subtest skips on a
// host without the CPU and OS support for its path.
func forEachKernel(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	savedAVX, savedAVX512 := useAVX, useAVX512
	defer func() { useAVX, useAVX512 = savedAVX, savedAVX512 }()
	for _, path := range kernelPaths {
		t.Run(path.name, func(t *testing.T) {
			if !path.supported {
				t.Skipf("no %s on this host", path.name)
			}
			useAVX, useAVX512 = path.avx, path.avx512
			fn(t)
		})
	}
}

// TestAllFinite pins the finiteness scan that decides whether the AVX tiles
// may run: any Inf or NaN, wherever it sits, sends the product to the Go
// kernel; every finite value, however large or small, does not. It runs on
// every kernel path: the AVX ones scan through finite4AVX.
func TestAllFinite(t *testing.T) {
	forEachKernel(t, testAllFinite)
}

func testAllFinite(t *testing.T) {
	for _, tc := range []struct {
		name string
		x    []float64
		want bool
	}{
		{"empty", nil, true},
		{"ordinary", []float64{0, 1, -2.5}, true},
		{"NaN", []float64{1, math.NaN(), 2}, false},
		{"+Inf", []float64{math.Inf(1)}, false},
		{"-Inf", []float64{3, math.Inf(-1)}, false},
		{"MaxFloat64", []float64{math.MaxFloat64, -math.MaxFloat64}, true},
		{"negative zero", []float64{math.Copysign(0, -1)}, true},
		{"smallest subnormal", []float64{5e-324, -5e-324}, true},
		{"Inf in the last element only", append(make([]float64, 99), math.Inf(1)), false},
	} {
		if got := allFinite(tc.x); got != tc.want {
			t.Errorf("%s: allFinite = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestAllFiniteSweep puts +Inf, -Inf or NaN at every position of every
// length up to 40 — the vector scan's 16- and 4-element blocks and the Go
// tail — on every kernel path. Each slice sits in a backing array whose
// elements past its end are NaN, so a scan that reads beyond its length
// reports a finite slice as non-finite.
func TestAllFiniteSweep(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		for n := 0; n <= 40; n++ {
			backing := make([]float64, n+16)
			for i := range backing {
				backing[i] = math.NaN()
			}
			x := backing[:n]
			for i := range x {
				x[i] = float64(i) - 3.5
			}
			if !allFinite(x) {
				t.Fatalf("n=%d: finite slice reported non-finite", n)
			}
			for i := range x {
				for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
					saved := x[i]
					x[i] = bad
					if allFinite(x) {
						t.Fatalf("n=%d: %v at %d not found", n, bad, i)
					}
					x[i] = saved
				}
			}
		}
	})
}

// TestDifferentialMulKernels pins every multiply path on rectangular shapes,
// including odd and prime dimensions, bit-exactly to the naive reference.
func TestDifferentialMulKernels(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		src := prng.New(0xd1ff)
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

// TestDifferentialFactorKernels pins Factor bit-exactly to the reference
// elimination: identical packed LU values, permutation, and determinant
// sign.
func TestDifferentialFactorKernels(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		src := prng.New(0xfac7)
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
			f.Release()
		}
	})
}

// TestDifferentialFactorSparse pins the factorization on sparse input, the
// shape of a sparse graph's absorbing-chain systems: seven of eight entries
// are zeros of either sign, so most multipliers are zero, many rows of a
// trailing update have no term at all, and a zero entry's multiplier is
// formed without a division. The diagonal dominates with a random sign, so
// pivots of both signs turn those zeros into zeros of both signs.
func TestDifferentialFactorSparse(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		src := prng.New(0x5ba45e)
		for _, n := range awkwardSizes {
			a := MustNew(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					switch src.Uint64() % 16 {
					case 0:
						a.Set(i, j, src.Float64())
					case 1:
						a.Set(i, j, -src.Float64())
					case 2, 3, 4, 5, 6, 7:
						a.Set(i, j, math.Copysign(0, -1))
					}
				}
				d := a.At(i, i) + float64(n)
				if src.Bool() {
					d = -d
				}
				a.Set(i, i, d)
			}
			want, wantPerm, wantSign, ok := refFactor(a)
			if !ok {
				t.Fatalf("n=%d: reference factorization unexpectedly singular", n)
			}
			f, err := Factor(a)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			requireFactorEqual(t, fmt.Sprintf("sparse Factor n=%d", n), f, want, wantPerm, wantSign)
		}
	})
}

// TestDifferentialFactorSingular checks that Factor rejects exactly the
// input the reference elimination finds singular.
func TestDifferentialFactorSingular(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		src := prng.New(0x5146)
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
	forEachKernel(t, func(t *testing.T) {
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
	})
}

// TestDifferentialSolveBatch pins SolveBatchInto — aliased and disjoint
// destinations — bit-exactly to column-by-column solveInto over a
// factorization that is itself pinned to the reference.
func TestDifferentialSolveBatch(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		src := prng.New(0xba7c)
		for _, n := range []int{1, 2, 3, 5, 17, 33, 64, 97} {
			// Widths around the Go path's 4-column tile and the AVX path's
			// 16-column tile: a padded tile alone, full tiles alone, and
			// full tiles followed by a padded one.
			for _, m := range []int{1, 2, 3, 4, 5, 9, 15, 16, 17, 31, 32, 33} {
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
					f.solveInto(out, col)
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

// TestDifferentialMulSpecialValues drives Inf, NaN, negative zero and
// subnormals through the multiply kernel, in three fillings:
//
//   - value-cycle: every operand entry cycles through the special values, so
//     nearly every row of a meets a NaN or an Inf.
//   - specials-in-b: the specials sit sparsely in b, and a holds exact zeros
//     (both signs) on a different lattice, so some output entries skip every
//     non-finite term and stay finite. A kernel that let a zero entry of a
//     reach b would turn those skipped 0*Inf terms into NaNs.
//   - specials-in-a: every third row of a holds one Inf, -Inf or NaN and the
//     other rows are finite, and b has zero columns facing them. A NaN in a
//     must still count (NaN != 0), Inf in a times 0 in b must give NaN, and
//     the finite rows, tiled with the special ones, must stay finite.
//
// 5x6 * 6x7 never fills a 4x8 AVX tile; 9x13 * 13x17 has full 4x8 tiles,
// two 4x16 tiles per row quad (the second shifted back to column 1), and
// ragged rows. The AVX tiles rely on the finiteness rule (see mulRows), so
// the test also checks the routing: a b holding Inf or NaN (value-cycle,
// specials-in-b) must reach the Go kernel, while specials-in-a, whose b is
// finite, runs the path's own tile with Inf and NaN in a and must still
// match the reference. NaN entries are compared as "both NaN" rather
// than by payload — IEEE addition does not specify which operand's NaN
// payload propagates, so the payload bits depend on operand ordering, not on
// the kernel's term ordering. Every non-NaN entry (including Inf and the
// sign of zero) must still match bit for bit.
func TestDifferentialMulSpecialValues(t *testing.T) {
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	cycle := []float64{0, 1.5, math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 2e-308}
	fillings := []struct {
		name string
		a, b func(i, j, cols int) float64
	}{
		{
			name: "value-cycle",
			a:    func(i, j, cols int) float64 { return cycle[(i*cols+j)%len(cycle)] },
			b:    func(i, j, cols int) float64 { return cycle[(i*cols+j+3)%len(cycle)] },
		},
		{
			name: "specials-in-b",
			a: func(i, k, _ int) float64 {
				switch {
				case (i+k)%3 == 0:
					return math.Copysign(0, float64(i%2)-0.5)
				case (i*k)%7 == 3:
					return 5e-324
				}
				return 1.5 - float64((i+k)%5)
			},
			b: func(k, j, _ int) float64 {
				switch {
				case (k+2*j)%5 == 0:
					return specials[j%len(specials)]
				case (k+j)%4 == 1:
					return math.Copysign(0, -1)
				case (k*j)%6 == 5:
					return 2e-308
				}
				return float64(k-j) / 3
			},
		},
		{
			name: "specials-in-a",
			a: func(i, k, cols int) float64 {
				switch {
				case i%3 == 1 && k == (5*i)%cols:
					return specials[(i/3)%len(specials)]
				case (i+k)%4 == 0:
					return math.Copysign(0, float64(k%2)-0.5)
				case (i*k)%7 == 3:
					return 5e-324
				}
				return float64(i-k) / 4
			},
			b: func(k, j, _ int) float64 {
				switch {
				case j%3 == 0:
					return math.Copysign(0, float64(k%2)-0.5)
				case (k+j)%5 == 2:
					return 2e-308
				}
				return 0.75 + float64((k*j)%6)
			},
		},
	}
	forEachKernel(t, func(t *testing.T) {
		for _, f := range fillings {
			for _, shape := range [][3]int{{5, 6, 7}, {9, 13, 17}} {
				rows, inner, cols := shape[0], shape[1], shape[2]
				a := MustNew(rows, inner)
				b := MustNew(inner, cols)
				for i := 0; i < rows; i++ {
					for k := 0; k < inner; k++ {
						a.Set(i, k, f.a(i, k, inner))
					}
				}
				for k := 0; k < inner; k++ {
					for j := 0; j < cols; j++ {
						b.Set(k, j, f.b(k, j, cols))
					}
				}
				finiteB := true
				for _, v := range b.data {
					if math.IsInf(v, 0) || math.IsNaN(v) {
						finiteB = false
					}
				}
				wantPath := Kernel()
				switch {
				case !finiteB || !useAVX || cols < 8:
					wantPath = "go"
				case cols < 16:
					wantPath = avxKernel
				}
				if p := mulPath(a, b); p != wantPath {
					t.Fatalf("%s %v: product runs the %s kernel, want %s", f.name, shape, p, wantPath)
				}
				want := MustNew(rows, cols)
				refMulInto(want, a, b)
				got := MustNew(rows, cols)
				if err := MulInto(got, a, b); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < rows; i++ {
					for j := 0; j < cols; j++ {
						g, w := got.At(i, j), want.At(i, j)
						if math.IsNaN(w) {
							if !math.IsNaN(g) {
								t.Fatalf("%s %v: entry (%d,%d) = %g, want NaN", f.name, shape, i, j, g)
							}
							continue
						}
						if math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("%s %v: entry (%d,%d) = %x, want %x", f.name, shape, i, j, math.Float64bits(g), math.Float64bits(w))
						}
					}
				}
			}
		}
	})
}
