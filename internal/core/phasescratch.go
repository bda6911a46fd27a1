package core

// The sampler state's scratch-arena helpers (see phaseRunner): the level's
// pair tables, the first-visit lists, and the epoch-stamped counters and
// sets the per-level protocol steps reuse.

// resetShortcutRows unmaps the phase's shortcut rows.
func (r *phaseRunner) resetShortcutRows() {
	for _, v := range r.qFrom {
		r.qRow[v] = -1
	}
	r.qFrom = r.qFrom[:0]
}

// resetLevel prepares the pair tables for a new level's assignment.
func (r *phaseRunner) resetLevel() {
	r.pairEpoch++
	if r.pairEpoch == 0 {
		clear(r.pairIdxepoch)
		r.pairEpoch = 1
	}
	r.pairOrder = r.pairOrder[:0]
	r.pairCounts = r.pairCounts[:0]
	r.pairMachine = r.pairMachine[:0]
}

// pairLookup returns the order index of (p, q) this level, or -1.
func (r *phaseRunner) pairLookup(p, q int) int {
	code := p*r.n + q
	if r.pairIdxepoch[code] != r.pairEpoch {
		return -1
	}
	return int(r.pairIdx[code])
}

// pairInsert records (p, q) under the next order index and returns it.
func (r *phaseRunner) pairInsert(p, q int) int {
	code := p*r.n + q
	oi := len(r.pairOrder)
	r.pairIdxepoch[code] = r.pairEpoch
	r.pairIdx[code] = int32(oi)
	r.pairOrder = append(r.pairOrder, pairKey{p: p, q: q})
	r.pairCounts = append(r.pairCounts, 0)
	return oi
}

// readyFirstVisits empties every machine's first-visit request and reply
// lists.
func (r *phaseRunner) readyFirstVisits() {
	for u := range r.fvReqs {
		r.fvReqs[u] = r.fvReqs[u][:0]
		r.fvEntries[u] = r.fvEntries[u][:0]
	}
}

// readyPairs sizes the pair tables for the level's pairs before the
// assignment runs: one pooled pair state per pair, filed by order index as
// the assignments arrive, and no machine holding one yet.
func (r *phaseRunner) readyPairs() {
	k := len(r.pairOrder)
	for len(r.psPool) < k {
		r.psPool = append(r.psPool, &pairState{})
	}
	if cap(r.orderedPS) < k {
		r.orderedPS = make([]*pairState, k)
	}
	r.orderedPS = r.orderedPS[:k]
	r.pairPrefix = growInts(r.pairPrefix, k)
	r.pairOcc = growInts(r.pairOcc, k)
	clear(r.pairsOn)
}

// dense is an epoch-stamped sparse-to-dense integer counter over local
// vertex indices: reset is O(1), add/get are O(1), and iteration visits the
// touched indices in first-touch order, so the count-collection protocol
// allocates no per-call table.
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
// mark, and membership. A fresh stamp reports every index as present until
// its first reset.
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
