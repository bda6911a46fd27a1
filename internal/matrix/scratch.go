package matrix

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// The scratch pool recycles the backing arrays of short-lived matrices — the
// transient intermediates of Schur elimination, absorbing-chain solves, and
// repeated squaring, and a sampler phase's own Schur, shortcut and power
// matrices — so the sampler's per-phase steady state stops paying allocator
// and GC cost for buffers it discards soon after. A pooled matrix that is
// never released is an ordinary matrix, so long-lived holders (a Prepared's
// phase-0 table) simply keep theirs; the one rule is that a matrix is
// released only by its last user.
//
// The pool stores float64 slices in power-of-two size classes: class c
// holds slices with capacity at least 1<<c, and a request for need floats is
// served from class ceil(log2(need)), so every pooled slice it gets fits.
// Each slice sits in a *[]float64 box that travels with the matrix drawn
// from it and goes back with its storage, so a Release boxes nothing after
// a buffer's first trip through the pool.
// One pool across all sizes would hand a large request the small buffer a
// previous phase released, over and over, and allocate fresh each time.
var scratchPools [bits.UintSize]sync.Pool

// Pool counters, exposed via ReadPoolStats for the engine's metrics surface.
var (
	poolGets   atomic.Int64
	poolReuses atomic.Int64
	poolPuts   atomic.Int64
)

// PoolStats reports the scratch pool's cumulative, process-wide counters.
// Reuses/Gets is the pool hit rate; the gap is fresh allocations.
type PoolStats struct {
	Gets   int64 `json:"gets"`
	Reuses int64 `json:"reuses"`
	Puts   int64 `json:"puts"`
}

// ReadPoolStats returns a snapshot of the scratch pool counters.
func ReadPoolStats() PoolStats {
	return PoolStats{
		Gets:   poolGets.Load(),
		Reuses: poolReuses.Load(),
		Puts:   poolPuts.Load(),
	}
}

// Scratch returns a zeroed rows x cols matrix whose storage may come from
// the pool. The caller owns it until Release and must not use it afterwards;
// a matrix handed to other code is released only once they are done with it.
func Scratch(rows, cols int) *Matrix {
	m, reused := scratch(rows, cols)
	if reused {
		clear(m.data)
	}
	return m
}

// ScratchUncleared is Scratch without the clear: a reused buffer holds
// whatever its last user left. It is for a caller that writes every entry
// before it reads any, such as the destination of MulInto or of a full
// copy; the power tables' products and copies are drawn this way.
func ScratchUncleared(rows, cols int) *Matrix {
	m, _ := scratch(rows, cols)
	return m
}

// scratch draws a rows x cols matrix from the pool, or allocates a zeroed
// one; reused says which.
func scratch(rows, cols int) (m *Matrix, reused bool) {
	if rows <= 0 || cols <= 0 {
		panic("matrix: invalid scratch dimensions")
	}
	need := rows * cols
	class := bits.Len(uint(need - 1))
	poolGets.Add(1)
	if v := scratchPools[class].Get(); v != nil {
		poolReuses.Add(1)
		box := v.(*[]float64)
		return &Matrix{rows: rows, cols: cols, data: (*box)[:need], box: box}, true
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, need, 1<<class)}, false
}

// Release returns the matrix's storage to the scratch pool. The matrix must
// not be used afterwards. Releasing a matrix that did not come from Scratch
// is allowed (its buffer simply joins the pool) — but never release a matrix
// something else still references.
func (m *Matrix) Release() {
	if m == nil || m.data == nil {
		return
	}
	poolPuts.Add(1)
	box := m.box
	if box == nil {
		box = new([]float64)
	}
	*box = m.data[:cap(m.data)]
	scratchPools[bits.Len(uint(len(*box)))-1].Put(box)
	m.data, m.box = nil, nil
	m.rows, m.cols = 0, 0
}
