package core

import (
	"repro/internal/matrix"
	"repro/internal/prng"
)

// phaseScratch is the per-sample scratch arena of the phase runner. One
// instance is created per sampleLoop call and threaded through every phase
// runner (and Las Vegas segment) of that sample, so the per-level protocol
// steps — pair assignment, midpoint generation, the O(log l) count
// collections of the truncation search, and midpoint placement — reuse flat
// buffers instead of allocating maps and slices a few thousand times per
// tree. Everything here is bookkeeping whose values are recomputed each use;
// nothing observable (trees, Stats, traces) depends on the reuse.
//
// The arena is single-goroutine state, like the runner itself: both clique
// executors call a declaration's send and receive functions from the
// calling goroutine. It also holds the protocol's declarations, which act
// on the current runner r.
type phaseScratch struct {
	n     int // machine count; local indices and pair codes are < n and n²
	r     *phaseRunner
	proto *protocol

	// Pair bookkeeping for the current level. pairIdx maps the dense pair
	// code p*n+q to the pair's first-appearance index, epoch-stamped so a new
	// level invalidates it in O(1).
	pairIdx      []int32
	pairIdxepoch []uint32
	pairEpoch    uint32
	slotPair     []pairKey
	slotOcc      []int
	slotIdx      []int // slot -> pair order index
	pairOrder    []pairKey
	pairCounts   []int // by order index
	// pairMachine maps an order index k to its pair machine, k mod n. A
	// machine owns several pairs when a level has more distinct pairs than
	// machines (the appendix's exact variant does; the paper's main setting
	// has at most n per the ρ = √n budget), and the simulator charges the
	// extra per-machine bandwidth.
	pairMachine []int
	orderedPS   []*pairState
	pairsOn     []int // by machine: pairs assigned to it so far this level
	// The pair machines' current truncation candidate, by order index: the
	// sequence prefix to tally and the mf occurrence to report (-1: none).
	pairPrefix []int
	pairOcc    []int
	psPool     []*pairState

	// The leader's current truncation candidate: prefix count by order
	// index, and the mf slot's pair and occurrence (-1 when the prefix has
	// no midpoint slot).
	prefixCount []int
	mfIdx       int
	mfOcc       int

	counts dense // the leader's collected midpoint multiset (bsCounts)
	totals dense // per-collection tally aggregate
	local  dense // per-pair prefix tally
	seen   stamp // distinct-vertex marking (truncation check, need sets)

	vertices  []int
	rowsBuf   []int
	needList  []int
	subIdx    []int // needed vertex -> submatrix index, valid under seen's epoch
	needHosts []int // machine hosting each needed vertex
	leaderTo  []int // the leader once per needed vertex: the block's receiving units
	block     *matrix.Matrix
	placedBuf []int // slot -> placed midpoint, one placement at a time
	walkBuf   []int // spare walk buffer; swaps with the live walk each level

	rngs   []*prng.Source
	aliasB prng.AliasBuilder

	// First-visit recovery (Algorithm 4): the phase's visits, and per
	// machine (global id) the predecessor it was told, the requests it got,
	// the replies it got, and the entry neighbor reported for it (-1: none).
	visits    []fvVisit
	fvPrev    []int
	fvReqs    [][]fvReq
	fvEntries [][]fvReply
	fvEdge    []int
	weights   []float64
	// The phase's shortcut rows: qFrom lists their start vertices, and
	// qRow maps a global vertex to its row (-1: none).
	qFrom []int
	qRow  []int
}

func newPhaseScratch(n int) *phaseScratch {
	sc := &phaseScratch{
		n:            n,
		pairIdx:      make([]int32, n*n),
		pairIdxepoch: make([]uint32, n*n),
		counts:       newDense(n),
		totals:       newDense(n),
		local:        newDense(n),
		seen:         newStamp(n),
		subIdx:       make([]int, n),
		rngs:         make([]*prng.Source, n),
		pairsOn:      make([]int, n),
		fvPrev:       make([]int, n),
		fvReqs:       make([][]fvReq, n),
		fvEntries:    make([][]fvReply, n),
		fvEdge:       make([]int, n),
		qRow:         make([]int, n),
	}
	for v := range sc.qRow {
		sc.qRow[v] = -1
	}
	sc.proto = newProtocol(sc)
	return sc
}

// resetShortcutRows unmaps the phase's shortcut rows.
func (sc *phaseScratch) resetShortcutRows() {
	for _, v := range sc.qFrom {
		sc.qRow[v] = -1
	}
	sc.qFrom = sc.qFrom[:0]
}

// resetLevel prepares the pair tables for a new level's assignment.
func (sc *phaseScratch) resetLevel() {
	sc.pairEpoch++
	if sc.pairEpoch == 0 {
		clear(sc.pairIdxepoch)
		sc.pairEpoch = 1
	}
	sc.pairOrder = sc.pairOrder[:0]
	sc.pairCounts = sc.pairCounts[:0]
	sc.pairMachine = sc.pairMachine[:0]
}

// pairLookup returns the order index of (p, q) this level, or -1.
func (sc *phaseScratch) pairLookup(p, q int) int {
	code := p*sc.n + q
	if sc.pairIdxepoch[code] != sc.pairEpoch {
		return -1
	}
	return int(sc.pairIdx[code])
}

// pairInsert records (p, q) under the next order index and returns it.
func (sc *phaseScratch) pairInsert(p, q int) int {
	code := p*sc.n + q
	oi := len(sc.pairOrder)
	sc.pairIdxepoch[code] = sc.pairEpoch
	sc.pairIdx[code] = int32(oi)
	sc.pairOrder = append(sc.pairOrder, pairKey{p: p, q: q})
	sc.pairCounts = append(sc.pairCounts, 0)
	return oi
}

// readyFirstVisits empties every machine's first-visit request and reply
// lists.
func (sc *phaseScratch) readyFirstVisits() {
	for u := range sc.fvReqs {
		sc.fvReqs[u] = sc.fvReqs[u][:0]
		sc.fvEntries[u] = sc.fvEntries[u][:0]
	}
}

// readyPairs sizes the pair tables for the level's pairs before the
// assignment runs: one pooled pair state per pair, filed by order index as
// the assignments arrive, and no machine holding one yet.
func (sc *phaseScratch) readyPairs() {
	k := len(sc.pairOrder)
	for len(sc.psPool) < k {
		sc.psPool = append(sc.psPool, &pairState{})
	}
	if cap(sc.orderedPS) < k {
		sc.orderedPS = make([]*pairState, k)
	}
	sc.orderedPS = sc.orderedPS[:k]
	sc.pairPrefix = growInts(sc.pairPrefix, k)
	sc.pairOcc = growInts(sc.pairOcc, k)
	clear(sc.pairsOn)
}

// dense is an epoch-stamped sparse-to-dense integer counter over local
// vertex indices: reset is O(1), add/get are O(1), and iteration visits the
// touched indices in first-touch order. It replaces the per-call
// map[int]int instances of the count-collection protocol.
type dense struct {
	val     []int
	epoch   []uint32
	cur     uint32
	touched []int
}

func newDense(n int) dense {
	return dense{val: make([]int, n), epoch: make([]uint32, n)}
}

func (d *dense) reset() {
	d.cur++
	if d.cur == 0 {
		clear(d.epoch)
		d.cur = 1
	}
	d.touched = d.touched[:0]
}

func (d *dense) add(i, c int) {
	if d.epoch[i] != d.cur {
		d.epoch[i] = d.cur
		d.val[i] = 0
		d.touched = append(d.touched, i)
	}
	d.val[i] += c
}

func (d *dense) get(i int) int {
	if d.epoch[i] != d.cur {
		return 0
	}
	return d.val[i]
}

// stamp is an epoch-stamped set over local vertex indices: O(1) reset,
// mark, and membership.
type stamp struct {
	epoch []uint32
	cur   uint32
}

func newStamp(n int) stamp {
	return stamp{epoch: make([]uint32, n)}
}

func (s *stamp) reset() {
	s.cur++
	if s.cur == 0 {
		clear(s.epoch)
		s.cur = 1
	}
}

func (s *stamp) has(i int) bool { return s.epoch[i] == s.cur }

// mark stamps i and reports whether it was newly marked.
func (s *stamp) mark(i int) bool {
	if s.epoch[i] == s.cur {
		return false
	}
	s.epoch[i] = s.cur
	return true
}

// growFloats returns s resized to n without preserving contents,
// reallocating only when capacity is short.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growInts is growFloats for int slices.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// growPairKeys is growFloats for pairKey slices.
func growPairKeys(s []pairKey, n int) []pairKey {
	if cap(s) < n {
		return make([]pairKey, n)
	}
	return s[:n]
}
