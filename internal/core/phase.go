package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/matrix"
	"repro/internal/mm"
	"repro/internal/prng"
	"repro/internal/schur"
)

// pairKey is a (start, end) pair of consecutive walk vertices, in local
// subset indices.
type pairKey struct{ p, q int }

// pairState is the per-machine state of a designated pair machine M_{p,q}
// during one level (Algorithm 2).
type pairState struct {
	key     pairKey
	weights []float64 // midpoint distribution over local indices
	seq     []int     // Π_{p,q}: the c_{p,q} sampled midpoints, in occurrence order
}

// phaseRunner executes one phase of the sampler: a truncated top-down walk
// on the phase's transition matrix, then first-visit edge recovery.
type phaseRunner struct {
	sim *clique.Sim
	g   *graph.Graph
	cfg Config

	sub    *schur.Subset
	phase  int // phase index; phase 0 walks on G itself (see shortcut)
	pd     *matrix.PowerDyadic
	built  bool // pd was built for this phase, not taken from Prepared
	leader int  // global machine id of leader (hosts start vertex)
	start  int  // local index of phase start vertex
	rho    int  // distinct-vertex budget this phase
	// q holds the shortcut rows the first-visit step reads, one per
	// distinct Schur-walk predecessor of a first visit (sc.qRow maps a
	// global vertex to its row). firstVisitEdges builds them once the
	// phase walk is known; nil before that and in phase 0.
	q *matrix.Matrix
	// preSeen holds local indices already visited by earlier Las Vegas
	// segments of the same phase; they count toward the rho budget but a
	// reappearance is never a "first occurrence" (appendix §5.1).
	preSeen map[int]struct{}

	// hosts maps a local subset index to the global machine hosting it
	// (sub.Vertices(), fetched once — the protocol loops consult it per
	// message charge).
	hosts []int

	// src seeds the per-machine randomness; rngs materializes machine
	// streams lazily on first use. Stream derivation depends only on
	// (src seed, machine id), so laziness is draw-for-draw identical to
	// splitting every machine up front.
	src  *prng.Source
	rngs []*prng.Source

	// sc is the per-sample scratch arena shared by all runners of one
	// sampleLoop call (including Las Vegas segments).
	sc *phaseScratch

	// Leader-local walk state: dense dyadic grid in local indices.
	walk    []int
	spacing int64

	// Leader-local slot bookkeeping for the current level: slot j (1-based)
	// sits between walk[j-1] and walk[j]. The slices are views into the
	// scratch arena.
	slotPair []pairKey
	slotOcc  []int // occurrence index (1-based) of the slot within its pair
	slotIdx  []int // pair order index of the slot's pair

	// half is P^(δ/2) at the current level's spacing δ, the power the
	// midpoint weights and the leader's submatrix read.
	half *matrix.Matrix

	// Leader-local result of the most recent count collection: the midpoint
	// multiset lives in sc.counts; bsMf is the midpoint value at the queried
	// slot, -1 if none.
	bsMf int

	stats *Stats
}

// newPhaseRunner prepares a phase: transition matrix of Schur(G, S), the
// shortcut build's round charge (later phases only), dyadic power table
// (with round charging), and the initial two-vertex partial walk. A non-nil
// warm carries Prepare's cached phase-0 table: phase 0 always walks the full
// vertex set, so its power table is a per-graph constant that only the
// charging (not the numeric work) needs to be replayed for. Every later
// phase walks on a subset that depends on the walk so far and is built
// fresh.
func newPhaseRunner(sim *clique.Sim, g *graph.Graph, cfg Config, sub *schur.Subset, startGlobal int, phaseIdx int, preSeen map[int]struct{}, src *prng.Source, stats *Stats, warm *Prepared, sc *phaseScratch) (*phaseRunner, error) {
	startLocal, err := sub.LocalIndex(startGlobal)
	if err != nil {
		return nil, fmt.Errorf("core: phase start vertex: %w", err)
	}
	maxExp := int(math.Log2(float64(cfg.WalkLength)) + 0.5)
	var pd *matrix.PowerDyadic
	built := false
	// The phase-0 state is usable only under the Fast backend, whose Mul is
	// the same local matrix.Mul Prepare built it with and whose round charges
	// ReplayDyadicTable reproduces exactly. The dataflow backends (naive,
	// semiring3d) route real words through the simulator and may accumulate
	// in a different order, so they always build in-simulation — identical
	// numerics and accounting, no reuse benefit.
	if _, fast := cfg.Backend.(mm.Fast); warm != nil && fast && phaseIdx == 0 && sub.Size() == g.N() {
		pd = warm.pd0
		if err := mm.ReplayDyadicTable(sim, cfg.Backend, pd); err != nil {
			return nil, fmt.Errorf("core: replaying dyadic power table: %w", err)
		}
	} else {
		pd, err = buildPhaseState(sim, g, cfg, sub, phaseIdx, maxExp)
		if err != nil {
			return nil, err
		}
		built = true
	}

	rho := cfg.Rho
	if rho > sub.Size() {
		rho = sub.Size()
	}
	if preSeen == nil {
		preSeen = map[int]struct{}{}
	}
	if sc == nil {
		sc = newPhaseScratch(g.N())
	}
	clear(sc.rngs)
	r := &phaseRunner{
		sim:     sim,
		g:       g,
		cfg:     cfg,
		sub:     sub,
		phase:   phaseIdx,
		pd:      pd,
		built:   built,
		leader:  startGlobal,
		start:   startLocal,
		rho:     rho,
		preSeen: preSeen,
		hosts:   sub.Vertices(),
		src:     src,
		rngs:    sc.rngs,
		sc:      sc,
	}
	r.stats = stats
	sc.r = r // the protocol's declarations act on the newest runner

	// Outline 3 steps 3-4: sample the endpoint from S^l[start, *]. The
	// leader holds its own row of every power, so this is a local draw.
	endPow, err := pd.Power(int(cfg.WalkLength))
	if err != nil {
		return nil, err
	}
	end, err := r.rng(r.leader).WeightedIndex(endPow.Row(startLocal))
	if err != nil {
		return nil, fmt.Errorf("core: sampling phase endpoint: %w", err)
	}
	r.walk = []int{startLocal, end}
	r.spacing = cfg.WalkLength
	r.truncateWalkLocal()
	return r, nil
}

// release returns the phase state this runner built to the matrix scratch
// pool once the phase is over (releasing a nil matrix is a no-op, and only
// the runner that ran the first visits holds shortcut rows); the Prepared's
// phase-0 table is shared and stays. Recycling keeps a sample's allocation,
// and with it the garbage collector's work, to the walk's own state.
func (r *phaseRunner) release() {
	if r.built {
		r.pd.Release()
	}
	if r.q != nil {
		r.q.Release()
		r.q = nil
		r.sc.resetShortcutRows()
	}
}

// buildShortcutRows solves the shortcut rows the first-visit step reads:
// Q[prev, *] for each distinct predecessor prev of the phase's first visits
// (sc.visits), in first-appearance order. Phase 0 reads the identity and
// builds none. A Las Vegas phase builds them once, on its last segment's
// runner, over the whole extended walk: every segment walks the same
// subset, so their rows are the same.
func (r *phaseRunner) buildShortcutRows() error {
	if r.phase == 0 {
		return nil
	}
	sc := r.sc
	from := sc.qFrom[:0]
	for _, vis := range sc.visits {
		if sc.qRow[vis.prev] < 0 {
			sc.qRow[vis.prev] = len(from)
			from = append(from, vis.prev)
		}
	}
	sc.qFrom = from
	q, err := schur.ShortcutRows(r.g, r.sub, from)
	if err != nil {
		sc.resetShortcutRows()
		return fmt.Errorf("core: shortcut rows: %w", err)
	}
	r.q = q
	return nil
}

// shortcut returns Q[prev, u], the probability that u is the vertex the
// G-walk from prev visits immediately before it first enters S (the shortcut
// factor of Algorithm 4's Bayes weight), from the rows buildShortcutRows
// solved. Phase 0 walks on G itself, with S the whole vertex set, so that
// vertex is always prev: Q is the identity there and the phase holds no
// rows for it.
func (r *phaseRunner) shortcut(prev, u int) float64 {
	if r.q != nil {
		return r.q.At(r.sc.qRow[prev], u)
	}
	if u == prev {
		return 1
	}
	return 0
}

// rng returns machine id's random stream, splitting it from the segment
// source on first use. Splitting is a pure function of (source seed, id), so
// lazy creation yields the exact stream an eager split would.
func (r *phaseRunner) rng(id int) *prng.Source {
	s := r.rngs[id]
	if s == nil {
		s = r.src.Split(uint64(id))
		r.rngs[id] = s
	}
	return s
}

// buildPhaseState is the cold path of a phase's algebraic setup: the
// dyadic power table of the Schur transition matrix (which survives as the
// table's first power), with the round charges the paper's accounting
// assigns it and the shortcut matrix. The shortcut rows themselves are
// solved after the walk, for the rows it reads (buildShortcutRows).
func buildPhaseState(sim *clique.Sim, g *graph.Graph, cfg Config, sub *schur.Subset, phaseIdx, maxExp int) (*matrix.PowerDyadic, error) {
	smat, err := schur.Transition(g, sub)
	if err != nil {
		return nil, fmt.Errorf("core: schur transition: %w", err)
	}
	if phaseIdx > 0 {
		// Corollaries 2-3: the Schur and shortcut matrices are computed by
		// O(log(n^3/δ)) repeated squarings of a 2n-dimensional augmented
		// chain; charge the backend's cost for them. Phase 1 walks on G
		// itself and needs neither (§2.2: "short-cutting applies only
		// after the first phase").
		if err := mm.ChargeSchurShortcutBuild(sim, cfg.Backend, g.N(), maxExp); err != nil {
			smat.Release()
			return nil, err
		}
	}
	pd, err := mm.DyadicTable(sim, cfg.Backend, smat, maxExp, cfg.TruncDelta)
	smat.Release() // the table holds its own copy as the first power
	if err != nil {
		return nil, fmt.Errorf("core: dyadic power table: %w", err)
	}
	return pd, nil
}

// hostOf maps a local subset index to the global machine hosting it. Local
// indices flowing through the protocol are always valid; an out-of-range
// index panics, which is a protocol bug, not an input error.
func (r *phaseRunner) hostOf(localIdx int) int {
	return r.hosts[localIdx]
}

// truncateWalkLocal cuts the leader's walk at the first grid index whose
// prefix (together with vertices pre-seen by earlier segments) contains rho
// distinct vertices.
func (r *phaseRunner) truncateWalkLocal() {
	seen := &r.sc.seen
	seen.reset()
	distinct := 0
	for v := range r.preSeen {
		if seen.mark(v) {
			distinct++
		}
	}
	for i, v := range r.walk {
		if seen.mark(v) {
			distinct++
			if distinct == r.rho {
				r.walk = r.walk[:i+1]
				return
			}
		}
	}
}

// run executes the level loop until the walk reaches spacing 1, then
// returns the phase trajectory in local indices.
func (r *phaseRunner) run() ([]int, error) {
	for r.spacing > 1 {
		if err := r.runLevel(); err != nil {
			return nil, err
		}
		r.stats.Levels++
		if len(r.walk) > maxPositions {
			return nil, fmt.Errorf("core: partial walk grew to %d positions (cap %d)", len(r.walk), maxPositions)
		}
	}
	return r.walk, nil
}

// runLevel performs one filling level: midpoint requests and generation,
// distributed binary search for the truncation point, multiset collection,
// and matching-based placement.
func (r *phaseRunner) runLevel() error {
	if len(r.walk) < 2 {
		// Nothing to fill; spacing collapses with no new midpoints. This
		// only happens when rho = 1 truncated the walk to its start.
		r.spacing /= 2
		return nil
	}
	if err := r.assignPairs(); err != nil {
		return err
	}
	if err := r.generateMidpoints(); err != nil {
		return err
	}
	ellStar, err := r.findTruncationPoint()
	if err != nil {
		return err
	}
	if err := r.placeMidpoints(ellStar); err != nil {
		return err
	}
	return nil
}

// assignPairs implements Algorithm 2 steps 2-3: the leader counts the
// distinct consecutive pairs of the current partial walk, designates
// machine k for the k-th distinct pair, and sends each its count.
func (r *phaseRunner) assignPairs() error {
	// Leader-local bookkeeping (the leader holds W_i).
	sc := r.sc
	n := r.sim.N()
	k := len(r.walk) - 1
	sc.resetLevel()
	sc.slotPair = growPairKeys(sc.slotPair, k+1) // slots 1..k
	sc.slotOcc = growInts(sc.slotOcc, k+1)
	sc.slotIdx = growInts(sc.slotIdx, k+1)
	r.slotPair, r.slotOcc, r.slotIdx = sc.slotPair, sc.slotOcc, sc.slotIdx
	for j := 1; j <= k; j++ {
		p, q := r.walk[j-1], r.walk[j]
		oi := sc.pairLookup(p, q)
		if oi < 0 {
			oi = sc.pairInsert(p, q)
		}
		sc.pairCounts[oi]++
		r.slotPair[j] = pairKey{p: p, q: q}
		r.slotOcc[j] = sc.pairCounts[oi]
		r.slotIdx[j] = oi
	}
	order := sc.pairOrder
	sc.pairMachine = growInts(sc.pairMachine, len(order))
	for rank := range order {
		sc.pairMachine[rank] = rank % n
	}

	sc.readyPairs()
	return clique.Run(r.sim, &sc.proto.assign)
}

// generateMidpoints implements Algorithm 2 steps 4-5: each pair machine
// acquires its midpoint distribution from the vertex machines and samples
// its sequence Π_{p,q}.
func (r *phaseRunner) generateMidpoints() error {
	sc := r.sc
	hosts := r.hosts[:r.sub.Size()]
	machines := sc.pairMachine[:len(sc.pairOrder)]
	req := &sc.proto.distreq
	req.From, req.To = machines, hosts
	if err := clique.RunDense(r.sim, req); err != nil {
		return err
	}
	half, err := r.pd.Power(int(r.spacing / 2))
	if err != nil {
		return err
	}
	r.half = half
	reply := &sc.proto.distreply
	reply.From, reply.To = hosts, machines
	if err := clique.RunDense(r.sim, reply); err != nil {
		return err
	}
	// Pair machines sample their sequences locally (alias table: O(1) per
	// midpoint). Iterating pairs in order index consumes each machine's
	// stream in its own pair order.
	return clique.Local(r.sim, "core/generate", func() error {
		for oi, ps := range sc.orderedPS {
			alias, err := sc.aliasB.Build(ps.weights)
			if err != nil {
				return fmt.Errorf("pair (%d,%d) at gap %d has empty midpoint distribution: %w", ps.key.p, ps.key.q, r.spacing, err)
			}
			src := r.rng(machines[oi])
			for i := range ps.seq {
				ps.seq[i] = alias.Sample(src)
			}
		}
		return nil
	})
}

// slotsInPrefix returns the number of midpoint slots with grid index
// <= ellPrime: floor((ellPrime+1)/2).
func slotsInPrefix(ellPrime int64) int { return int((ellPrime + 1) / 2) }

// collectCounts runs the count/tally/report protocol of Algorithm 3 for the
// truncation candidate ellPrime, filling the leader's count multiset
// (midpoint multiset of the prefix, by vertex) and r.bsMf (the midpoint
// value at the last slot of the prefix, or -1 when the prefix has no
// midpoint slots).
func (r *phaseRunner) collectCounts(ellPrime int64) error {
	// Leader-local: per-pair prefix counts and the mf slot's owner.
	sc := r.sc
	sPrefix := slotsInPrefix(ellPrime)
	pairs := len(sc.pairOrder)
	sc.prefixCount = growInts(sc.prefixCount, pairs)
	clear(sc.prefixCount)
	for j := 1; j <= sPrefix; j++ {
		sc.prefixCount[r.slotIdx[j]]++
	}
	sc.mfIdx, sc.mfOcc = -1, -1
	if sPrefix >= 1 {
		sc.mfIdx, sc.mfOcc = r.slotIdx[sPrefix], r.slotOcc[sPrefix]
	}
	sc.totals.reset()
	if err := clique.Run(r.sim, &sc.proto.count); err != nil {
		return err
	}
	if err := clique.Run(r.sim, &sc.proto.tally); err != nil {
		return err
	}
	if err := clique.Run(r.sim, &sc.proto.report); err != nil {
		return err
	}
	// The leader absorbed the reports as they arrived.
	return clique.Local(r.sim, "core/bs/absorb", nil)
}

// checkTruncation implements Algorithm 3's predicate: whether ellPrime is
// at most the true truncation point ell_{i+1}. It must be called after
// collectCounts(ellPrime).
func (r *phaseRunner) checkTruncation(ellPrime int64) (bool, error) {
	evenPrefix := int(ellPrime / 2) // walk indices 0..evenPrefix are in the prefix
	counts := &r.sc.counts
	seen := &r.sc.seen
	seen.reset()
	dist := 0
	for v := range r.preSeen {
		if seen.mark(v) {
			dist++
		}
	}
	for _, v := range r.walk[:evenPrefix+1] {
		if seen.mark(v) {
			dist++
		}
	}
	for _, v := range counts.touched {
		if counts.val[v] > 0 && seen.mark(v) {
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
	countLast := r.sc.counts.get(last)
	if _, pre := r.preSeen[last]; pre {
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

// placeMidpoints implements the multiset collection and perfect matching
// placement (§2.1.3, Lemmas 3-4) at the found truncation point, producing
// the next level's partial walk.
func (r *phaseRunner) placeMidpoints(ellStar int64) error {
	// Re-run the collection at exactly ellStar so the leader holds the
	// midpoint multiset and the final midpoint of the truncated walk.
	if err := r.collectCounts(ellStar); err != nil {
		return err
	}
	lastSlot := slotsInPrefix(ellStar)
	evenPrefix := int(ellStar / 2)

	if lastSlot == 0 {
		// No midpoints in the prefix: the walk truncates to its start.
		r.walk = r.walk[:evenPrefix+1]
		r.spacing /= 2
		return nil
	}
	if r.bsMf < 0 {
		return fmt.Errorf("core: missing final midpoint value at truncation %d", ellStar)
	}

	// Expand the multiset minus one copy of mf into a deterministic row
	// list.
	sc := r.sc
	counts := &sc.counts
	total := 0
	vertices := sc.vertices[:0]
	for _, v := range counts.touched {
		total += counts.val[v]
		vertices = append(vertices, v)
	}
	sc.vertices = vertices
	if total != lastSlot {
		return fmt.Errorf("core: multiset holds %d midpoints, prefix has %d slots", total, lastSlot)
	}
	sort.Ints(vertices)
	rows := sc.rowsBuf[:0]
	mfTaken := false
	for _, v := range vertices {
		c := counts.get(v)
		if v == r.bsMf && !mfTaken {
			c--
			mfTaken = true
		}
		for i := 0; i < c; i++ {
			rows = append(rows, v)
		}
	}
	sc.rowsBuf = rows
	if !mfTaken {
		return fmt.Errorf("core: final midpoint %d not present in collected multiset", r.bsMf)
	}

	// The leader fetches the O(√n) x O(√n) submatrix of P^(δ/2) restricted
	// to the vertices it needs: walk prefix vertices and midpoints
	// (§2.1.3: broadcast S, receive the submatrix in O(1) rounds).
	seen := &sc.seen
	seen.reset()
	need := sc.needList[:0]
	for _, v := range r.walk[:evenPrefix+1] {
		if seen.mark(v) {
			need = append(need, v)
		}
	}
	for _, v := range vertices {
		if seen.mark(v) {
			need = append(need, v)
		}
	}
	sc.needList = need
	sort.Ints(need)
	sub, err := r.fetchSubmatrix()
	if err != nil {
		return err
	}

	// Place the non-final midpoints. The paper's mechanism samples a
	// weighted perfect matching between the collected multiset and the
	// open slots (Lemma 3); by Lemma 4 the resulting walk distribution is
	// exactly that of using the pair machines' Π sequences directly (the
	// matching only exists to avoid communicating the sequences, and the
	// simulator has already charged the compressed multiset messages). We
	// therefore run the exact matching sampler up to matchingLimit
	// positions and place directly from the Π sequences beyond it — the
	// degenerate periodic-walk case where the instance grows toward Θ(l).
	k := lastSlot - 1
	sc.placedBuf = growInts(sc.placedBuf, lastSlot+1)
	placed := sc.placedBuf // slot -> midpoint vertex (1-based); every read slot is written below
	placed[lastSlot] = r.bsMf
	switch {
	case k == 0:
		// Only the final midpoint exists.
	case k <= matchingLimit && !r.cfg.DirectPlacement:
		w := matrix.Scratch(k, k)
		for ri, x := range rows {
			for j := 1; j <= k; j++ {
				key := r.slotPair[j]
				w.Set(ri, j-1, sub.at(key.p, x)*sub.at(x, key.q))
			}
		}
		perm, err := matching.Exact{}.Sample(w, r.rng(r.leader))
		w.Release()
		if err != nil {
			return fmt.Errorf("core: matching placement at level spacing %d: %w", r.spacing, err)
		}
		for ri, col := range perm {
			placed[col+1] = rows[ri]
		}
		if k > r.stats.MaxMatchingSize {
			r.stats.MaxMatchingSize = k
		}
	default:
		// Direct Π-order placement (§5.3 equivalence).
		for j := 1; j <= k; j++ {
			ps := sc.orderedPS[r.slotIdx[j]]
			occ := r.slotOcc[j]
			if occ > len(ps.seq) {
				return fmt.Errorf("core: slot %d occurrence %d beyond sequence of %d", j, occ, len(ps.seq))
			}
			placed[j] = ps.seq[occ-1]
		}
	}

	// Assemble W_{i+1}: alternate walk vertices and placed midpoints up to
	// grid index ellStar, at half the spacing. The next walk is built in the
	// spare buffer and the outgoing walk becomes the new spare — only the
	// phase's final walk escapes the runner (to sampleLoop), and that one is
	// never recycled because the next runner starts from a fresh two-vertex
	// slice.
	sub.data.Release()
	next := growInts(sc.walkBuf, int(ellStar)+1)[:0]
	for g := int64(0); g <= ellStar; g++ {
		if g%2 == 0 {
			next = append(next, r.walk[g/2])
		} else {
			next = append(next, placed[(g+1)/2])
		}
	}
	sc.walkBuf = r.walk[:0]
	r.walk = next
	r.spacing /= 2
	return nil
}

// submat is the leader's fetched block of P^(δ/2) over the needed vertices,
// keyed by local indices: the scratch arena's seen stamp (still marking
// exactly the needed set from the caller's need-list construction) is the
// membership test and subIdx the position. The block is stored transposed,
// row b holding what every needed vertex sent for b.
type submat struct {
	sc   *phaseScratch
	data *matrix.Matrix
}

func (s *submat) at(a, b int) float64 {
	if !s.sc.seen.has(a) || !s.sc.seen.has(b) {
		return 0
	}
	return s.data.At(s.sc.subIdx[b], s.sc.subIdx[a])
}

// fetchSubmatrix broadcasts the needed vertex set (sc.needList) and collects
// the corresponding block of P^(δ/2) at the leader.
func (r *phaseRunner) fetchSubmatrix() (*submat, error) {
	sc := r.sc
	need := sc.needList
	err := clique.RunBroadcast(r.sim, r.leader, len(need), func(dst []clique.Word) []clique.Word { return clique.AppendInts(dst, need...) })
	if err != nil {
		return nil, err
	}
	half, err := r.pd.Power(int(r.spacing / 2))
	if err != nil {
		return nil, err
	}
	r.half = half
	k := len(need)
	sc.needHosts = growInts(sc.needHosts, k)
	sc.leaderTo = growInts(sc.leaderTo, k)
	for i, v := range need {
		sc.subIdx[v] = i
		sc.needHosts[i] = r.hostOf(v)
		sc.leaderTo[i] = r.leader
	}
	sc.block = matrix.Scratch(k, k)
	d := &sc.proto.submatrix
	d.From, d.To = sc.needHosts, sc.leaderTo
	if err := clique.RunDense(r.sim, d); err != nil {
		return nil, err
	}
	if err := clique.Local(r.sim, "core/submatrix-absorb", nil); err != nil {
		return nil, err
	}
	return &submat{sc: sc, data: sc.block}, nil
}
