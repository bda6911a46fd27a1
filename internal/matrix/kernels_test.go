package matrix

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/prng"
)

// TestMulIntoMatchesMul: on each kernel path the allocation-lean kernel is
// the same computation as Mul and as the naive reference, bit for bit,
// including on a dirty (reused) destination.
func TestMulIntoMatchesMul(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		src := prng.New(11)
		for trial := 0; trial < 40; trial++ {
			r := 1 + src.Intn(20)
			k := 1 + src.Intn(20)
			c := 1 + src.Intn(20)
			a := randomMatrix(r, k, src)
			b := randomMatrix(k, c, src)
			want, err := a.Mul(b)
			if err != nil {
				t.Fatal(err)
			}
			ref := MustNew(r, c)
			refMulInto(ref, a, b)
			requireBitEqual(t, fmt.Sprintf("trial %d: Mul", trial), want, ref)
			dst := randomMatrix(r, c, src) // dirty on purpose
			if err := MulInto(dst, a, b); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dst.data, want.data) {
				t.Fatalf("trial %d: MulInto differs from Mul", trial)
			}
		}
		// Shape and aliasing guards.
		a := randomMatrix(3, 4, src)
		b := randomMatrix(4, 2, src)
		if err := MulInto(MustNew(2, 2), a, b); err == nil {
			t.Error("wrong-shape dst accepted")
		}
		sq := randomMatrix(3, 3, src)
		if err := MulInto(sq, sq, randomMatrix(3, 3, src)); err == nil {
			t.Error("aliased dst accepted")
		}
	})
}

// TestSolveIntoMatchesSolve covers the one-column reference solve,
// including the rhs-aliases-solution mode, and pins a one-column
// SolveBatchInto on each kernel path to it bit for bit.
func TestSolveIntoMatchesSolve(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		src := prng.New(7)
		for trial := 0; trial < 20; trial++ {
			n := 1 + src.Intn(10)
			a := randomMatrix(n, n, src)
			for i := 0; i < n; i++ {
				a.Add(i, i, float64(n)) // diagonally dominant: never singular
			}
			f, err := Factor(a)
			if err != nil {
				t.Fatal(err)
			}
			b := make([]float64, n)
			for i := range b {
				b[i] = src.Float64()
			}
			want := make([]float64, n)
			f.solveInto(want, b)
			// Aliased: solve in place on a copy of b.
			inPlace := append([]float64(nil), b...)
			f.solveInto(inPlace, inPlace)
			if !reflect.DeepEqual(inPlace, want) {
				t.Fatalf("trial %d: aliased solveInto differs", trial)
			}
			batch := MustNew(n, 1)
			copy(batch.data, b)
			if err := f.SolveBatchInto(batch, batch); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(batch.data, want) {
				t.Fatalf("trial %d: one-column SolveBatchInto differs from solveInto", trial)
			}
		}
	})
}

// TestFactorInPlace pins Factor's ownership contract: the factorization
// lives in its argument's backing array, and a singular argument is
// released with the error.
func TestFactorInPlace(t *testing.T) {
	src := prng.New(3)
	n := 8
	a := randomMatrix(n, n, src)
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBacking(f.lu, a) {
		t.Error("Factor copied its argument")
	}
	f.Release()
	singular := MustNew(2, 2)
	if f, err := Factor(singular); err == nil {
		f.Release()
		t.Fatal("singular matrix factored")
	}
	if singular.data != nil {
		t.Error("singular argument not released")
	}
}

// TestScratchPoolReuse: released buffers come back, counters move, and a
// reused scratch matrix starts zeroed.
func TestScratchPoolReuse(t *testing.T) {
	before := ReadPoolStats()
	m := Scratch(6, 6)
	m.Set(2, 3, 42)
	m.Release()
	m2 := Scratch(4, 4) // smaller: must fit the recycled buffer
	defer m2.Release()
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if m2.At(i, j) != 0 {
				t.Fatalf("reused scratch not zeroed at (%d,%d)", i, j)
			}
		}
	}
	after := ReadPoolStats()
	if after.Gets <= before.Gets || after.Puts <= before.Puts {
		t.Errorf("pool counters did not advance: %+v -> %+v", before, after)
	}
}

// poisonPool releases count buffers of rows x cols matrices' size class to
// the scratch pool with every element, up to capacity, set to NaN.
func poisonPool(rows, cols, count int) {
	bufs := make([]*Matrix, count)
	for i := range bufs {
		bufs[i] = Scratch(rows, cols)
		full := bufs[i].data[:cap(bufs[i].data)]
		for j := range full {
			full[j] = math.NaN()
		}
	}
	for _, m := range bufs {
		m.Release()
	}
}

// TestUnclearedScratchPoisoned fills the pool with NaN-poisoned buffers
// before every ScratchUncleared draw and checks that a product MulInto
// writes into it, and a full copy, are bit-identical to the reference
// product and the source on every kernel path: both overwrite every entry,
// so nothing the last user left can leak into a power table.
func TestUnclearedScratchPoisoned(t *testing.T) {
	forEachKernel(t, func(t *testing.T) {
		src := prng.New(0x9015)
		before := ReadPoolStats()
		for _, n := range awkwardSizes {
			a := randomDense(t, n, n+1, src)
			b := randomDense(t, n+1, n+2, src)
			want := MustNew(n, n+2)
			refMulInto(want, a, b)
			poisonPool(n, n+2, 4)
			got := ScratchUncleared(n, n+2)
			if err := MulInto(got, a, b); err != nil {
				t.Fatalf("n=%d: MulInto: %v", n, err)
			}
			requireBitEqual(t, fmt.Sprintf("product n=%d", n), got, want)
			got.Release()

			poisonPool(n, n+1, 4)
			clone := ScratchUncleared(n, n+1)
			for i := 0; i < n; i++ {
				copy(clone.Row(i), a.Row(i))
			}
			requireBitEqual(t, fmt.Sprintf("copy n=%d", n), clone, a)
			clone.Release()
		}
		if after := ReadPoolStats(); after.Reuses == before.Reuses {
			t.Error("no draw reused a poisoned buffer")
		}
	})
}
