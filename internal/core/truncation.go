package core

import (
	"fmt"

	"repro/internal/clique"
)

// Algorithm 3's truncation search. Each candidate is tested by one count
// collection — the count, tally, report and absorb supersteps — and the
// search makes O(log l) of them per level, plus one at the point it finds.
// On the materializing executor every collection sends its messages. On the
// charged executor the collection steps run in their charged forms
// (clique.Bulk), which read a per-level table instead: one pass over the
// level's slots, in slot order, records for every slot prefix what the
// leader's predicate reads and what each collection superstep's loads peak
// at, so a candidate costs O(1) however long its prefix is.

// slotsInPrefix returns the number of midpoint slots with grid index
// <= ellPrime: floor((ellPrime+1)/2).
func slotsInPrefix(ellPrime int64) int { return int((ellPrime + 1) / 2) }

// prefixRow is what the count collection of one slot prefix s reports to
// the leader and charges, for the tally and the report. Every load of the
// tally's count messages only grows with s, so their running maxima over
// the slot pass are the prefix's peaks; the tally's one-word mf message
// lands on loads the row keeps, so adding it is O(1).
type prefixRow struct {
	mf int // the midpoint at slot s, the mf value (-1 at s = 0)
	// The tally's count messages: the most words a machine sends, receives,
	// and messages it receives, and the total words.
	tallySend, tallyRecv, tallyMsgs, tallyWords int
	// The mf message's ends: its owner's send words, the leader's receive
	// words and messages.
	ownerSend, leaderRecv, leaderMsgs int
	// distinct midpoint values in the prefix, one 2-word report each.
	distinct int
}

// gridPoint is what the leader's predicate reads at one grid index g of the
// filled walk: the distinct count of the prefix W+[0..g], vertices walked by
// the phase's earlier segments included, and whether W+[g] is the first
// occurrence of an unwalked vertex.
type gridPoint struct {
	dist  int
	first bool
}

// machineLoad is one machine's tally loads during the slot pass.
type machineLoad struct{ send, recv, msgs int }

// tabulatePrefixes builds the level tables the charged collections read,
// from the leader's slots and the pair machines' sequences.
func (r *phaseRunner) tabulatePrefixes() {
	k := len(r.walk) - 1
	pairs := len(r.orderedPS)

	// A pair machine sends one count message per distinct vertex in its
	// sequence prefix, so a midpoint adds one only at its first occurrence
	// in the pair's sequence.
	r.pairOff = growSlice(r.pairOff, pairs)
	r.pairFirst = growSlice(r.pairFirst, k)
	off := 0
	for oi, ps := range r.orderedPS {
		r.pairOff[oi] = off
		r.seen.reset()
		for t, v := range ps.seq {
			r.pairFirst[off+t] = r.seen.mark(v)
		}
		off += len(ps.seq)
	}

	rows, grid := growSlice(r.prefixRows, k+1), growSlice(r.grid, 2*k+1)
	r.prefixRows, r.grid = rows, grid
	clear(r.loads)
	r.seen.reset()
	r.midSeen.reset()
	dist := r.walkedN
	point := func(v int) gridPoint {
		first := !r.walked.has(v) && r.seen.mark(v)
		if first {
			dist++
		}
		return gridPoint{dist, first}
	}
	row := prefixRow{mf: -1}
	rows[0] = row
	grid[0] = point(r.walk[0])
	for j := 1; j <= k; j++ {
		oi, t := r.slotIdx[j], r.slotOcc[j]-1
		v := r.orderedPS[oi].seq[t]
		owner := &r.loads[r.pairMachine[oi]]
		if r.pairFirst[r.pairOff[oi]+t] {
			host := &r.loads[r.hosts[v]]
			owner.send += 2
			host.recv += 2
			host.msgs++
			row.tallyWords += 2
			row.tallySend = max(row.tallySend, owner.send)
			row.tallyRecv = max(row.tallyRecv, host.recv)
			row.tallyMsgs = max(row.tallyMsgs, host.msgs)
		}
		if r.midSeen.mark(v) {
			row.distinct++
		}
		row.mf = v
		row.ownerSend = owner.send
		leader := r.loads[r.leader]
		row.leaderRecv, row.leaderMsgs = leader.recv, leader.msgs
		rows[j] = row
		grid[2*j-1] = point(v)
		grid[2*j] = point(r.walk[j])
	}
}

// collectCounts runs the count/tally/report protocol of Algorithm 3 for the
// truncation candidate ellPrime. The leader then holds the prefix's
// midpoint multiset and mf value (materializing executor), or its row of
// the level tables (charged executor); checkTruncation reads either, and
// expandRow turns a row into the multiset.
func (r *phaseRunner) collectCounts(ellPrime int64) error {
	r.bsSlots = slotsInPrefix(ellPrime)
	r.bsTabled = false
	r.totals.reset()
	p := r.proto
	if err := clique.RunBulk(r.sim, &p.count); err != nil {
		return err
	}
	if err := clique.RunBulk(r.sim, &p.tally); err != nil {
		return err
	}
	if err := clique.RunBulk(r.sim, &p.report); err != nil {
		return err
	}
	// The leader absorbed the reports as they arrived.
	return clique.Local(r.sim, "core/bs/absorb", nil)
}

// chargeCount is the count step's charged form: the leader sends every
// pair machine a 4-word message per pair, whatever the candidate, and
// machine m owns the pairs m, m+n, ….
func (r *phaseRunner) chargeCount(plan *clique.CostPlan) error {
	pairs := len(r.orderedPS)
	perMachine := (pairs + r.n - 1) / r.n
	plan.SetPeaks(4*pairs, 4*perMachine, perMachine, int64(4*pairs))
	return nil
}

// chargeTally is the tally step's charged form: the prefix row's count
// messages plus, when the prefix has a slot, the mf owner's one word to the
// leader.
func (r *phaseRunner) chargeTally(plan *clique.CostPlan) error {
	row := &r.prefixRows[r.bsSlots]
	send, recv, msgs, words := row.tallySend, row.tallyRecv, row.tallyMsgs, row.tallyWords
	if r.bsSlots >= 1 {
		send = max(send, row.ownerSend+1)
		recv = max(recv, row.leaderRecv+1)
		msgs = max(msgs, row.leaderMsgs+1)
		words++
	}
	plan.SetPeaks(send, recv, msgs, int64(words))
	return nil
}

// chargeReport is the report step's charged form: every distinct midpoint's
// vertex machine sends the leader 2 words. A machine hosts one subset
// vertex, so none sends more than 2. The leader is handed the prefix's row.
func (r *phaseRunner) chargeReport(plan *clique.CostPlan) error {
	d := r.prefixRows[r.bsSlots].distinct
	plan.SetPeaks(2*min(d, 1), 2*d, d, int64(2*d))
	r.bsTabled = true
	return nil
}

// expandRow turns a charged collection's row into what the materializing
// collection delivers: the leader's midpoint multiset of the prefix's
// slots, and the mf value. It does nothing after a materializing one.
func (r *phaseRunner) expandRow() {
	if !r.bsTabled {
		return
	}
	r.counts.reset()
	for _, row := range r.prefixRows[1 : r.bsSlots+1] {
		r.counts.add(row.mf, 1)
	}
	r.bsMf = r.prefixRows[r.bsSlots].mf
	r.bsTabled = false
}

// checkTruncation implements Algorithm 3's predicate: whether ellPrime is
// at most the true truncation point ell_{i+1}. It must be called after
// collectCounts(ellPrime).
func (r *phaseRunner) checkTruncation(ellPrime int64) (bool, error) {
	if r.bsTabled {
		pt := r.grid[ellPrime]
		return pt.dist < r.rho || pt.dist == r.rho && pt.first, nil
	}
	evenPrefix := int(ellPrime / 2) // walk indices 0..evenPrefix are in the prefix
	counts := &r.counts
	seen := &r.seen
	seen.reset()
	dist := r.walkedN
	for _, v := range r.walk[:evenPrefix+1] {
		if !r.walked.has(v) && seen.mark(v) {
			dist++
		}
	}
	for _, v := range counts.touched {
		if counts.val[v] > 0 && !r.walked.has(v) && seen.mark(v) {
			dist++
		}
	}
	if dist > r.rho {
		return false, nil
	}
	if dist < r.rho {
		return true, nil
	}
	// Dist == rho: true iff the final prefix vertex occurs exactly once.
	var last int
	if ellPrime%2 == 0 {
		last = r.walk[ellPrime/2]
	} else {
		if r.bsMf < 0 {
			return false, fmt.Errorf("core: missing mf value for odd truncation candidate %d", ellPrime)
		}
		last = r.bsMf
	}
	countLast := r.counts.get(last)
	if r.walked.has(last) {
		countLast++ // seen in an earlier segment: not a first occurrence
	}
	for _, v := range r.walk[:evenPrefix+1] {
		if v == last {
			countLast++
		}
	}
	if countLast < 1 {
		return false, fmt.Errorf("core: final prefix vertex %d not found in prefix", last)
	}
	return countLast == 1, nil
}

// findTruncationPoint runs the distributed binary search (Algorithm 3) for
// the largest grid index ell* of the filled walk W_i^+ such that the prefix
// contains at most rho distinct vertices, ending at the first occurrence of
// the rho-th.
func (r *phaseRunner) findTruncationPoint() (int64, error) {
	r.tabulatePrefixes()
	hi := int64(2 * (len(r.walk) - 1)) // full filled walk
	if err := r.collectCounts(hi); err != nil {
		return 0, err
	}
	ok, err := r.checkTruncation(hi)
	if err != nil {
		return 0, err
	}
	if ok {
		return hi, nil
	}
	lo := int64(0) // prefix = [start]: always valid
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if err := r.collectCounts(mid); err != nil {
			return 0, err
		}
		ok, err := r.checkTruncation(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, nil
}
