package matrix

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Kernel selection.
//
// The package carries two implementations of its dense inner loops: the
// blocked kernel (default), which walks 4x2 register tiles so each b column
// pair is streamed once per four output rows and every accumulation happens
// in registers, and the scalar kernel, the straightforward loops the package
// started with. Both produce byte-identical results for every input: per
// output element the blocked kernel performs exactly the scalar kernel's
// operation sequence — terms added in ascending k with the f == 0 skip —
// only the loop nest around that sequence changes. The scalar kernel stays
// selectable as the audit oracle; the differential tests in kernels pin the
// bit-exact equivalence against an independent naive reference.

// Kernel names a dense-kernel implementation.
type Kernel int32

const (
	// KernelBlocked is the register-tiled implementation (the default).
	KernelBlocked Kernel = iota
	// KernelScalar is the straightforward-loop implementation, kept as the
	// audit oracle and benchmark baseline. Outputs are byte-identical to
	// KernelBlocked for every input.
	KernelScalar
)

// activeKernel holds the process-wide kernel selection. A plain global is
// sound precisely because the variants are bit-exact: flipping it mid-flight
// can never change any result, only the wall-clock of in-progress calls.
var activeKernel atomic.Int32

// SetKernel selects the dense-kernel implementation process-wide. It exists
// for differential testing; production code has no reason to leave the
// default. Safe for concurrent
// use; outputs are byte-identical across variants by contract.
func SetKernel(k Kernel) { activeKernel.Store(int32(k)) }

// ActiveKernel reports the current process-wide kernel selection.
func ActiveKernel() Kernel { return Kernel(activeKernel.Load()) }

// normWorkers clamps a worker count to [1, GOMAXPROCS]: zero and negative
// mean sequential, and more workers than schedulable threads only adds
// scheduling overhead for row panels that would time-slice anyway.
func normWorkers(workers int) int {
	if workers < 1 {
		return 1
	}
	if p := runtime.GOMAXPROCS(0); workers > p {
		return p
	}
	return workers
}

// minParallelFlops is the work floor under which runRows stays sequential:
// below roughly a quarter-million flops the goroutine handoff costs more
// than the panels win back.
const minParallelFlops = 1 << 18

// runRows partitions [0, rows) into one contiguous panel per worker and runs
// fn on each panel, on the caller's goroutine when the work is too small (or
// workers is 1) and on worker goroutines otherwise. Each output row belongs
// to exactly one panel, and fn computes a row the same way regardless of
// which panel holds it, so results are byte-identical for every worker
// count and every partition — the determinism contract the KernelWorkers
// knob advertises.
func runRows(rows, workers int, flopsPerRow int64, fn func(lo, hi int)) {
	workers = normWorkers(workers)
	if workers > rows {
		workers = rows
	}
	if workers <= 1 || int64(rows)*flopsPerRow < minParallelFlops {
		fn(0, rows)
		return
	}
	var wg sync.WaitGroup
	chunk := (rows + workers - 1) / workers
	for lo := 0; lo < rows; lo += chunk {
		hi := lo + chunk
		if hi > rows {
			hi = rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// MulWorkers is Mul with the output rows computed by up to workers
// goroutines. The product is byte-identical to Mul for every worker count.
func (m *Matrix) MulWorkers(o *Matrix, workers int) (*Matrix, error) {
	// The product comes from the scratch pool so that short-lived products
	// (a sample's per-phase power tables) can be recycled with Release; a
	// caller that keeps the product simply never releases it.
	out := Scratch(m.rows, o.cols)
	if err := MulIntoWorkers(out, m, o, workers); err != nil {
		out.Release()
		return nil, err
	}
	return out, nil
}

// MulIntoWorkers is MulInto with the output rows computed by up to workers
// goroutines (disjoint row panels, no shared accumulation, so the product is
// byte-identical to MulInto for every worker count).
func MulIntoWorkers(dst, a, b *Matrix, workers int) error {
	if err := checkMulInto(dst, a, b); err != nil {
		return err
	}
	runRows(a.rows, workers, 2*int64(a.cols)*int64(b.cols), func(lo, hi int) {
		mulRows(dst, a, b, lo, hi)
	})
	return nil
}

// mulRows computes rows [lo, hi) of out = a*b, overwriting them, with the
// selected kernel. Shapes are already validated and out aliases neither
// operand.
func mulRows(out, a, b *Matrix, lo, hi int) {
	if ActiveKernel() == KernelScalar {
		mulRowsScalar(out, a, b, lo, hi)
		return
	}
	mulRowsBlocked(out, a, b, lo, hi)
}

// mulRowsScalar is the original ikj loop: zero the output row, then stream
// rows of b, accumulating in memory. Per output element (i, j) the value is
// the sum of a[i][k]*b[k][j] over ascending k, skipping terms with
// a[i][k] == 0. This operation sequence is the package's bit-exactness
// contract; every other multiply kernel reproduces it term for term.
func mulRowsScalar(out, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		oi := out.Row(i)
		for j := range oi {
			oi[j] = 0
		}
		mi := a.Row(i)
		for k, f := range mi {
			if f == 0 {
				continue
			}
			bk := b.Row(k)
			for j, v := range bk {
				oi[j] += f * v
			}
		}
	}
}

// mulRowsBlocked is the register-tiled kernel: 4x2 output tiles held in
// registers across the whole k loop, so the 16 flops per k cost six loads
// and no stores. A column pair of b is one stride-w walk per tile row-quad
// (w*8-byte stride, n cache lines — L1-resident through n=512, and the next
// three column pairs hit the same lines). The per-(row, k) `f != 0` branches
// reproduce the scalar kernel's skip exactly, so each accumulator sees the
// scalar kernel's operation sequence and the result is byte-identical — in
// particular, zero entries of a never touch Inf/NaN in b, which a branchless
// formulation would get wrong. (The one carve-out: when an input already
// holds NaN, the output entry is NaN under every variant but its payload
// bits follow the compiler's operand ordering, which IEEE addition leaves
// unspecified.)
func mulRowsBlocked(out, a, b *Matrix, lo, hi int) {
	n := a.cols
	w := b.cols
	bd := b.data
	i := lo
	for ; i+4 <= hi; i += 4 {
		a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		o0, o1, o2, o3 := out.Row(i), out.Row(i+1), out.Row(i+2), out.Row(i+3)
		var j int
		for ; j+2 <= w; j += 2 {
			var c00, c01, c10, c11, c20, c21, c30, c31 float64
			bo := j
			for k := 0; k < n; k++ {
				v0, v1 := bd[bo], bd[bo+1]
				if f := a0[k]; f != 0 {
					c00 += f * v0
					c01 += f * v1
				}
				if f := a1[k]; f != 0 {
					c10 += f * v0
					c11 += f * v1
				}
				if f := a2[k]; f != 0 {
					c20 += f * v0
					c21 += f * v1
				}
				if f := a3[k]; f != 0 {
					c30 += f * v0
					c31 += f * v1
				}
				bo += w
			}
			o0[j], o0[j+1] = c00, c01
			o1[j], o1[j+1] = c10, c11
			o2[j], o2[j+1] = c20, c21
			o3[j], o3[j+1] = c30, c31
		}
		if j < w {
			var c0, c1, c2, c3 float64
			bo := j
			for k := 0; k < n; k++ {
				v := bd[bo]
				if f := a0[k]; f != 0 {
					c0 += f * v
				}
				if f := a1[k]; f != 0 {
					c1 += f * v
				}
				if f := a2[k]; f != 0 {
					c2 += f * v
				}
				if f := a3[k]; f != 0 {
					c3 += f * v
				}
				bo += w
			}
			o0[j], o1[j], o2[j], o3[j] = c0, c1, c2, c3
		}
	}
	for ; i < hi; i++ {
		ai := a.Row(i)
		oi := out.Row(i)
		var j int
		for ; j+2 <= w; j += 2 {
			var c0, c1 float64
			bo := j
			for k := 0; k < n; k++ {
				if f := ai[k]; f != 0 {
					c0 += f * bd[bo]
					c1 += f * bd[bo+1]
				}
				bo += w
			}
			oi[j], oi[j+1] = c0, c1
		}
		if j < w {
			var c float64
			bo := j
			for k := 0; k < n; k++ {
				if f := ai[k]; f != 0 {
					c += f * bd[bo]
				}
				bo += w
			}
			oi[j] = c
		}
	}
}
