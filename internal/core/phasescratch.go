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

// readyFirstVisits lays out the flat first-visit buffers for the phase's
// visits: every G-neighbor u of a visited vertex v gets one request from v
// and answers it with one reply, so a counting pass over the visits' edges
// gives each machine's request count and each visited vertex's reply
// count, and prefix sums of them give the offsets the receive functions
// fill from.
func (r *phaseRunner) readyFirstVisits() {
	clear(r.fvReqEnd)
	replies := 0
	for _, vis := range r.visits {
		deg := r.g.NeighborCount(vis.v)
		r.fvEntOff[vis.v], r.fvEntEnd[vis.v] = replies, replies
		replies += deg
		for i := range deg {
			r.fvReqEnd[r.g.NeighborAt(vis.v, i).To]++
		}
	}
	requests := 0
	for u, c := range r.fvReqEnd {
		r.fvReqOff[u], r.fvReqEnd[u] = requests, requests
		requests += c
	}
	r.fvReqBuf = growSlice(r.fvReqBuf, requests)
	r.fvEntBuf = growSlice(r.fvEntBuf, replies)
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
	r.pairPrefix = growSlice(r.pairPrefix, k)
	r.pairOcc = growSlice(r.pairOcc, k)
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

// growSlice returns s resized to n without preserving contents,
// reallocating only when capacity is short.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
