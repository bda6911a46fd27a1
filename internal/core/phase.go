package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/mm"
	"repro/internal/prng"
	"repro/internal/schur"
)

// Message tags for the per-level protocol.
const (
	tagAssign    = iota // leader -> pair machine: (p, q, count)
	tagDistReq          // pair machine -> vertex machine: (p, q)
	tagDistReply        // vertex machine -> pair machine: (j, weight)
	tagBSCount          // leader -> pair machine: (prefix count, mf occurrence or -1)
	tagBSTally          // pair machine -> vertex machine: (j, count)
	tagBSMf             // pair machine -> leader: (mf value)
	tagBSReport         // vertex machine -> leader: (j, count)
	tagSubEntry         // vertex machine -> leader: (a, b, value)
	tagFveNotify        // leader -> first-visit vertex: (prev)
	tagFveReq           // first-visit vertex -> neighbor: (v)
	tagFveReply         // neighbor -> first-visit vertex: (u, weight)
	tagFveEdge          // first-visit vertex -> leader: (u, v)
)

// pairKey is a (start, end) pair of consecutive walk vertices, in local
// subset indices.
type pairKey struct{ p, q int }

// pairState is the per-machine state of a designated pair machine M_{p,q}
// during one level (Algorithm 2).
type pairState struct {
	key     pairKey
	count   int       // c_{p,q}: midpoints requested
	weights []float64 // midpoint distribution over local indices
	seq     []int     // Π_{p,q}: sampled midpoints, in occurrence order
}

// phaseRunner executes one phase of the sampler: a truncated top-down walk
// on the phase's transition matrix, then first-visit edge recovery.
type phaseRunner struct {
	sim *clique.Sim
	g   *graph.Graph
	cfg Config

	sub     *schur.Subset
	pd      *matrix.PowerDyadic
	q       *matrix.Matrix // shortcut transitions, global indices
	built   bool           // pd and q were built for this phase, not taken from Prepared
	leader  int            // global machine id of leader (hosts start vertex)
	start   int            // local index of phase start vertex
	rho     int            // distinct-vertex budget this phase
	charged bool           // SimFidelity: charged supersteps vs full message dataflow
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

	// Per-machine pair state for the current level. A machine may own
	// several pairs when the level has more distinct pairs than machines
	// (the paper's main setting has at most n pairs per the ρ = √n budget;
	// the appendix's exact variant exceeds it, and the simulator then
	// charges the extra per-machine bandwidth automatically).
	pairs [][]*pairState
	// Leader-local slot bookkeeping for the current level: slot j (1-based)
	// sits between walk[j-1] and walk[j]. The slices are views into the
	// scratch arena; pairRank is kept as a map for the full-fidelity
	// protocol only, while the charged path indexes the arena's order tables
	// directly.
	slotPair []pairKey
	slotOcc  []int // occurrence index (1-based) of the slot within its pair
	slotIdx  []int // pair order index of the slot's pair
	pairRank map[pairKey]int

	// Leader-local result of the most recent count collection: the midpoint
	// multiset lives in sc.counts; bsMf is the midpoint value at the queried
	// slot, -1 if none.
	bsMf int

	stats *Stats
}

// newPhaseRunner prepares a phase: transition matrix of Schur(G, S),
// shortcut matrix, dyadic power table (with round charging), and the
// initial two-vertex partial walk. A non-nil warm carries Prepare's cached
// phase-0 state: phase 0 always walks the full vertex set, so its shortcut
// matrix and power table are per-graph constants that only the charging (not
// the numeric work) needs to be replayed for. Every later phase walks on a
// subset that depends on the walk so far and is built fresh.
func newPhaseRunner(sim *clique.Sim, g *graph.Graph, cfg Config, sub *schur.Subset, startGlobal int, phaseIdx int, preSeen map[int]struct{}, src *prng.Source, stats *Stats, warm *Prepared, sc *phaseScratch) (*phaseRunner, error) {
	startLocal, err := sub.LocalIndex(startGlobal)
	if err != nil {
		return nil, fmt.Errorf("core: phase start vertex: %w", err)
	}
	maxExp := int(math.Log2(float64(cfg.WalkLength)) + 0.5)
	var q *matrix.Matrix
	var pd *matrix.PowerDyadic
	built := false
	// The phase-0 state is usable only under the Fast backend, whose Mul is
	// the same local matrix.Mul Prepare built it with and whose round charges
	// ReplayDyadicTable reproduces exactly. The dataflow backends (naive,
	// semiring3d) route real words through the simulator and may accumulate
	// in a different order, so they always build in-simulation — identical
	// numerics and accounting, no reuse benefit.
	if _, fast := cfg.Backend.(mm.Fast); warm != nil && fast && phaseIdx == 0 && sub.Size() == g.N() {
		q = warm.q0
		pd = warm.pd0
		if err := mm.ReplayDyadicTable(sim, cfg.Backend, pd); err != nil {
			return nil, fmt.Errorf("core: replaying dyadic power table: %w", err)
		}
	} else {
		q, pd, err = buildPhaseState(sim, g, cfg, sub, phaseIdx, maxExp)
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
		pd:      pd,
		q:       q,
		built:   built,
		leader:  startGlobal,
		start:   startLocal,
		rho:     rho,
		charged: cfg.SimFidelity.Charged(),
		preSeen: preSeen,
		hosts:   sub.Vertices(),
		src:     src,
		rngs:    sc.rngs,
		sc:      sc,
	}
	r.stats = stats

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
// pool once the phase is over; the Prepared's phase-0 state is shared and
// stays. Recycling keeps a sample's allocation, and with it the garbage
// collector's work, to the walk's own state.
func (r *phaseRunner) release() {
	if r.built {
		r.pd.Release()
		r.q.Release()
	}
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
// shortcut matrix and the dyadic power table of the Schur transition matrix
// (which survives as the table's first power), with the round charges the
// paper's accounting assigns them.
func buildPhaseState(sim *clique.Sim, g *graph.Graph, cfg Config, sub *schur.Subset, phaseIdx, maxExp int) (q *matrix.Matrix, pd *matrix.PowerDyadic, err error) {
	smat, err := schur.Transition(g, sub)
	if err != nil {
		return nil, nil, fmt.Errorf("core: schur transition: %w", err)
	}
	q, err = schur.ShortcutTransition(g, sub)
	if err != nil {
		return nil, nil, fmt.Errorf("core: shortcut transition: %w", err)
	}
	if phaseIdx > 0 {
		// Corollaries 2-3: the Schur and shortcut matrices are computed by
		// O(log(n^3/δ)) repeated squarings of a 2n-dimensional augmented
		// chain; charge the backend's cost for them. Phase 1 walks on G
		// itself and needs neither (§2.2: "short-cutting applies only
		// after the first phase").
		if err := mm.ChargeSchurShortcutBuild(sim, cfg.Backend, g.N(), maxExp); err != nil {
			return nil, nil, err
		}
	}
	pd, err = mm.DyadicTable(sim, cfg.Backend, smat, maxExp, cfg.TruncDelta, cfg.SimFidelity)
	smat.Release() // the table holds its own copy as the first power
	if err != nil {
		return nil, nil, fmt.Errorf("core: dyadic power table: %w", err)
	}
	return q, pd, nil
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

	if cap(sc.pairs) < n {
		sc.pairs = make([][]*pairState, n)
	}
	sc.pairs = sc.pairs[:n]
	for i := range sc.pairs {
		sc.pairs[i] = sc.pairs[i][:0]
	}
	r.pairs = sc.pairs
	leader := r.leader
	if r.charged {
		plan := sc.plan
		plan.Reset()
		for rank := range order {
			plan.Add(leader, rank%n, 3)
		}
		return r.sim.ChargedSuperstep("core/assign", plan, nil)
	}
	r.pairRank = make(map[pairKey]int, len(order))
	for rank, key := range order {
		r.pairRank[key] = rank % n
	}
	return r.sim.Superstep("core/assign", func(id int, in []clique.Message) ([]clique.Message, error) {
		if id != leader {
			return nil, nil
		}
		msgs := make([]clique.Message, 0, len(order))
		for rank, key := range order {
			msgs = append(msgs, clique.Message{
				To:  rank % n,
				Tag: tagAssign,
				Words: []clique.Word{
					clique.IntWord(key.p),
					clique.IntWord(key.q),
					clique.IntWord(sc.pairCounts[rank]),
				},
			})
		}
		return msgs, nil
	})
}

// findPair locates the pair state for (p, q) on machine id.
func (r *phaseRunner) findPair(id, p, q int) *pairState {
	for _, ps := range r.pairs[id] {
		if ps.key.p == p && ps.key.q == q {
			return ps
		}
	}
	return nil
}

// generateMidpoints implements Algorithm 2 steps 4-5: each pair machine
// acquires its midpoint distribution from the vertex machines and samples
// its sequence Π_{p,q}.
func (r *phaseRunner) generateMidpoints() error {
	if r.charged {
		return r.generateMidpointsCharged()
	}
	size := r.sub.Size()
	// Superstep 1: pair machines store their assignments and broadcast the
	// distribution requests to every vertex machine of the subset.
	err := r.sim.Superstep("core/distreq", func(id int, in []clique.Message) ([]clique.Message, error) {
		var msgs []clique.Message
		for _, m := range in {
			if m.Tag != tagAssign {
				continue
			}
			ps := &pairState{
				key:     pairKey{p: m.Words[0].Int(), q: m.Words[1].Int()},
				count:   m.Words[2].Int(),
				weights: make([]float64, size),
			}
			r.pairs[id] = append(r.pairs[id], ps)
			for j := 0; j < size; j++ {
				msgs = append(msgs, clique.Message{
					To:    r.hostOf(j),
					Tag:   tagDistReq,
					Words: []clique.Word{clique.IntWord(ps.key.p), clique.IntWord(ps.key.q), clique.IntWord(j)},
				})
			}
		}
		return msgs, nil
	})
	if err != nil {
		return err
	}
	// Superstep 2: vertex machine j answers with the unnormalized midpoint
	// probability P^(δ/2)[p,j] * P^(δ/2)[j,q] (Formula 1). Machine j holds
	// row j and column j of every power (Algorithm 1 step 3), so both
	// factors are local.
	half, err := r.pd.Power(int(r.spacing / 2))
	if err != nil {
		return err
	}
	err = r.sim.Superstep("core/distreply", func(id int, in []clique.Message) ([]clique.Message, error) {
		var msgs []clique.Message
		for _, m := range in {
			if m.Tag != tagDistReq {
				continue
			}
			p, q, j := m.Words[0].Int(), m.Words[1].Int(), m.Words[2].Int()
			w := half.At(p, j) * half.At(j, q)
			msgs = append(msgs, clique.Message{
				To:    m.From,
				Tag:   tagDistReply,
				Words: []clique.Word{clique.IntWord(p), clique.IntWord(q), clique.IntWord(j), clique.FloatWord(w)},
			})
		}
		return msgs, nil
	})
	if err != nil {
		return err
	}
	// Superstep 3: pair machines assemble their distributions and sample
	// each Π_{p,q} (alias table: O(1) per midpoint).
	return r.sim.Superstep("core/generate", func(id int, in []clique.Message) ([]clique.Message, error) {
		if len(r.pairs[id]) == 0 {
			return nil, nil
		}
		got := make(map[pairKey]int, len(r.pairs[id]))
		for _, m := range in {
			if m.Tag != tagDistReply {
				continue
			}
			p, q, j := m.Words[0].Int(), m.Words[1].Int(), m.Words[2].Int()
			ps := r.findPair(id, p, q)
			if ps == nil {
				return nil, fmt.Errorf("machine %d received weight for unassigned pair (%d,%d)", id, p, q)
			}
			ps.weights[j] = m.Words[3].Float()
			got[ps.key]++
		}
		for _, ps := range r.pairs[id] {
			if got[ps.key] != size {
				return nil, fmt.Errorf("pair machine %d received %d of %d weights for (%d,%d)", id, got[ps.key], size, ps.key.p, ps.key.q)
			}
			alias, err := prng.NewAlias(ps.weights)
			if err != nil {
				return nil, fmt.Errorf("pair (%d,%d) at gap %d has empty midpoint distribution: %w", ps.key.p, ps.key.q, r.spacing, err)
			}
			ps.seq = make([]int, ps.count)
			src := r.rng(id)
			for i := range ps.seq {
				ps.seq[i] = alias.Sample(src)
			}
		}
		return nil, nil
	})
}

// generateMidpointsCharged is the charged-mode port of generateMidpoints:
// the same three supersteps (distribution request, reply, local sampling)
// with identical per-message charges, but the distributions are assembled
// directly from the shared power table instead of routed word-by-word. Pair
// state is created in the leader's assignment order — exactly the arrival
// order the full path sees, since inboxes deliver one sender's messages in
// emission order — and each machine's sampling consumes its rng stream in
// the same per-machine order as the full path, so trees are byte-identical.
func (r *phaseRunner) generateMidpointsCharged() error {
	sc := r.sc
	size := r.sub.Size()
	hosts := r.hosts[:size]
	machines := sc.pairMachine[:len(sc.pairOrder)]
	plan := sc.plan
	// Superstep 1 (core/distreq): pair machines store their assignments and
	// broadcast distribution requests (3 words) to every subset vertex
	// machine — the dense pairs x hosts pattern, charged in bulk.
	plan.Reset()
	plan.Exchange(machines, hosts, 3)
	err := r.sim.ChargedSuperstep("core/distreq", plan, func() error {
		for oi, key := range sc.pairOrder {
			ps := sc.getPS(key, sc.pairCounts[oi], size)
			r.pairs[machines[oi]] = append(r.pairs[machines[oi]], ps)
			sc.orderedPS = append(sc.orderedPS, ps)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Superstep 2 (core/distreply): vertex machine j answers each request
	// with the unnormalized midpoint probability (4 words).
	half, err := r.pd.Power(int(r.spacing / 2))
	if err != nil {
		return err
	}
	plan.Reset()
	plan.Exchange(hosts, machines, 4)
	err = r.sim.ChargedSuperstep("core/distreply", plan, func() error {
		for _, ps := range sc.orderedPS {
			rowP := half.Row(ps.key.p)
			q := ps.key.q
			for j := range ps.weights {
				ps.weights[j] = rowP[j] * half.At(j, q)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Superstep 3 (core/generate): pair machines sample their sequences
	// locally — no traffic in either mode. Iterating pairs in assignment
	// order consumes each machine's stream in the same per-machine order as
	// the full path's per-machine loops (streams are independent across
	// machines, so interleaving between machines is immaterial).
	return r.sim.ChargedSuperstep("core/generate", nil, func() error {
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
// truncation candidate ellPrime, filling the leader's count multiset (midpoint multiset of
// the prefix, by vertex) and r.bsMf (the midpoint value at the last slot of
// the prefix, or -1 when the prefix has no midpoint slots).
func (r *phaseRunner) collectCounts(ellPrime int64) error {
	if r.charged {
		return r.collectCountsCharged(ellPrime)
	}
	sPrefix := slotsInPrefix(ellPrime)
	// Leader-local: per-pair prefix counts and the mf slot's owner.
	prefixCount := make(map[pairKey]int, len(r.pairRank))
	for j := 1; j <= sPrefix; j++ {
		prefixCount[r.slotPair[j]]++
	}
	mfPair := pairKey{-1, -1}
	mfOcc := -1
	if sPrefix >= 1 {
		mfPair = r.slotPair[sPrefix]
		mfOcc = r.slotOcc[sPrefix]
	}
	leader := r.leader

	// Superstep A: leader sends each pair machine its prefix count, plus
	// the mf occurrence query for the owner of the final slot.
	err := r.sim.Superstep("core/bs/count", func(id int, in []clique.Message) ([]clique.Message, error) {
		if id != leader {
			return nil, nil
		}
		r.sc.counts.reset()
		r.bsMf = -1
		msgs := make([]clique.Message, 0, len(r.pairRank))
		for key, machine := range r.pairRank {
			occQ := -1
			if key == mfPair {
				occQ = mfOcc
			}
			c := prefixCount[key]
			msgs = append(msgs, clique.Message{
				To:  machine,
				Tag: tagBSCount,
				Words: []clique.Word{
					clique.IntWord(key.p),
					clique.IntWord(key.q),
					clique.IntWord(c),
					clique.IntWord(occQ + 1), // +1: keep words non-negative
				},
			})
		}
		return msgs, nil
	})
	if err != nil {
		return err
	}
	// Superstep B: pair machines tally Count(p,q,j,ellPrime) over their
	// sequence prefix and send per-vertex counts to the vertex machines;
	// the mf owner answers the leader directly.
	err = r.sim.Superstep("core/bs/tally", func(id int, in []clique.Message) ([]clique.Message, error) {
		if len(r.pairs[id]) == 0 {
			return nil, nil
		}
		var msgs []clique.Message
		for _, m := range in {
			if m.Tag != tagBSCount {
				continue
			}
			p, q := m.Words[0].Int(), m.Words[1].Int()
			c := m.Words[2].Int()
			occQ := m.Words[3].Int() - 1
			ps := r.findPair(id, p, q)
			if ps == nil {
				return nil, fmt.Errorf("machine %d asked about unassigned pair (%d,%d)", id, p, q)
			}
			if c > len(ps.seq) {
				return nil, fmt.Errorf("pair machine %d asked for prefix %d of %d midpoints", id, c, len(ps.seq))
			}
			local := make(map[int]int)
			for _, v := range ps.seq[:c] {
				local[v]++
			}
			for v, cnt := range local {
				msgs = append(msgs, clique.Message{
					To:    r.hostOf(v),
					Tag:   tagBSTally,
					Words: []clique.Word{clique.IntWord(v), clique.IntWord(cnt)},
				})
			}
			if occQ >= 1 {
				if occQ > len(ps.seq) {
					return nil, fmt.Errorf("pair machine %d mf query %d beyond %d midpoints", id, occQ, len(ps.seq))
				}
				msgs = append(msgs, clique.Message{
					To:    leader,
					Tag:   tagBSMf,
					Words: []clique.Word{clique.IntWord(ps.seq[occQ-1])},
				})
			}
		}
		return msgs, nil
	})
	if err != nil {
		return err
	}
	// Superstep C: vertex machines aggregate and report to the leader. The
	// pair machines' direct mf answers also land here; the leader stashes
	// them now because inboxes do not persist to the next superstep.
	err = r.sim.Superstep("core/bs/report", func(id int, in []clique.Message) ([]clique.Message, error) {
		totals := make(map[int]int)
		for _, m := range in {
			if m.Tag == tagBSTally {
				totals[m.Words[0].Int()] += m.Words[1].Int()
			}
			if m.Tag == tagBSMf && id == leader {
				r.bsMf = m.Words[0].Int()
			}
		}
		msgs := make([]clique.Message, 0, len(totals))
		for v, cnt := range totals {
			msgs = append(msgs, clique.Message{
				To:    leader,
				Tag:   tagBSReport,
				Words: []clique.Word{clique.IntWord(v), clique.IntWord(cnt)},
			})
		}
		return msgs, nil
	})
	if err != nil {
		return err
	}
	// Superstep D: leader absorbs the per-vertex counts.
	return r.sim.Superstep("core/bs/absorb", func(id int, in []clique.Message) ([]clique.Message, error) {
		if id != leader {
			return nil, nil
		}
		for _, m := range in {
			if m.Tag == tagBSReport {
				r.sc.counts.add(m.Words[0].Int(), m.Words[1].Int())
			}
		}
		return nil, nil
	})
}

// collectCountsCharged is the charged-mode port of collectCounts: the same
// four supersteps (count scatter, tally, report, absorb) with identical
// per-message charges, but the per-vertex counts flow into the leader's maps
// directly instead of being routed as tagged words. The tally step declares
// its pattern while computing — one 2-word message per (pair, distinct
// prefix vertex), exactly the compressed multiset the full path ships.
func (r *phaseRunner) collectCountsCharged(ellPrime int64) error {
	sc := r.sc
	sPrefix := slotsInPrefix(ellPrime)
	pairs := len(sc.pairOrder)
	prefixCount := growInts(sc.prefixCount, pairs)
	sc.prefixCount = prefixCount
	clear(prefixCount)
	for j := 1; j <= sPrefix; j++ {
		prefixCount[r.slotIdx[j]]++
	}
	mfIdx := -1
	mfOcc := -1
	if sPrefix >= 1 {
		mfIdx = r.slotIdx[sPrefix]
		mfOcc = r.slotOcc[sPrefix]
	}
	leader := r.leader

	// Superstep A (core/bs/count): leader sends each pair machine its
	// prefix count plus the mf occurrence query (4 words per pair).
	plan := sc.plan
	plan.Reset()
	for _, machine := range sc.pairMachine[:pairs] {
		plan.Add(leader, machine, 4)
	}
	err := r.sim.ChargedSuperstep("core/bs/count", plan, func() error {
		sc.counts.reset()
		r.bsMf = -1
		return nil
	})
	if err != nil {
		return err
	}

	// Superstep B (core/bs/tally): pair machines tally their sequence
	// prefixes toward the vertex machines; the mf owner answers the leader.
	plan.Reset()
	totals := &sc.totals
	totals.reset()
	mfVal := -1
	err = r.sim.ChargedSuperstep("core/bs/tally", plan, func() error {
		for oi := 0; oi < pairs; oi++ {
			machine := sc.pairMachine[oi]
			ps := sc.orderedPS[oi]
			c := prefixCount[oi]
			if c > len(ps.seq) {
				return fmt.Errorf("pair machine %d asked for prefix %d of %d midpoints", machine, c, len(ps.seq))
			}
			local := &sc.local
			local.reset()
			for _, v := range ps.seq[:c] {
				local.add(v, 1)
			}
			for _, v := range local.touched {
				plan.Add(machine, r.hosts[v], 2)
				totals.add(v, local.val[v])
			}
			if oi == mfIdx && mfOcc >= 1 {
				if mfOcc > len(ps.seq) {
					return fmt.Errorf("pair machine %d mf query %d beyond %d midpoints", machine, mfOcc, len(ps.seq))
				}
				mfVal = ps.seq[mfOcc-1]
				plan.Add(machine, leader, 1)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Superstep C (core/bs/report): vertex machines report their aggregates
	// to the leader (2 words per distinct vertex), which also stashes the mf
	// answer now, exactly when the full path's leader reads it.
	plan.Reset()
	err = r.sim.ChargedSuperstep("core/bs/report", plan, func() error {
		for _, v := range totals.touched {
			plan.Add(r.hosts[v], leader, 2)
		}
		r.bsMf = mfVal
		return nil
	})
	if err != nil {
		return err
	}

	// Superstep D (core/bs/absorb): leader absorbs — computation only.
	return r.sim.ChargedSuperstep("core/bs/absorb", nil, func() error {
		for _, v := range totals.touched {
			sc.counts.add(v, totals.val[v])
		}
		return nil
	})
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
	sub, err := r.fetchSubmatrix(need)
	if err != nil {
		return err
	}

	// Place the non-final midpoints. The paper's mechanism samples a
	// weighted perfect matching between the collected multiset and the
	// open slots (Lemma 3); by Lemma 4 the resulting walk distribution is
	// exactly that of using the pair machines' Π sequences directly (the
	// matching only exists to avoid communicating the sequences, and the
	// simulator has already charged the compressed multiset messages). We
	// therefore run the matching sampler up to matchingLimit positions and
	// place directly from the Π sequences beyond it — the degenerate
	// periodic-walk case where the instance grows toward Θ(l).
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
		perm, err := r.cfg.Matching.Sample(w, r.rng(r.leader))
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
			var ps *pairState
			if r.charged {
				ps = sc.orderedPS[r.slotIdx[j]]
			} else {
				key := r.slotPair[j]
				ps = r.findPair(r.pairRank[key], key.p, key.q)
			}
			if ps == nil {
				return fmt.Errorf("core: missing pair machine state for slot %d", j)
			}
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

// submat is the leader's fetched submatrix view keyed by local indices. The
// full-fidelity path keys it by map; the charged path reuses the scratch
// arena's seen stamp (still marking exactly the needed set from the caller's
// need-list construction) with the dense subIdx table.
type submat struct {
	idx  map[int]int
	sc   *phaseScratch
	data *matrix.Matrix
}

func (s *submat) at(a, b int) float64 {
	if s.idx != nil {
		ia, ok := s.idx[a]
		if !ok {
			return 0
		}
		ib, ok := s.idx[b]
		if !ok {
			return 0
		}
		return s.data.At(ia, ib)
	}
	if !s.sc.seen.has(a) || !s.sc.seen.has(b) {
		return 0
	}
	return s.data.At(s.sc.subIdx[a], s.sc.subIdx[b])
}

// fetchSubmatrix broadcasts the needed vertex set and collects the
// corresponding block of P^(δ/2) at the leader.
func (r *phaseRunner) fetchSubmatrix(need []int) (*submat, error) {
	if r.charged {
		return r.fetchSubmatrixCharged(need)
	}
	words := make([]clique.Word, len(need))
	for i, v := range need {
		words[i] = clique.IntWord(v)
	}
	if err := r.sim.Broadcast(r.leader, tagSubEntry, words); err != nil {
		return nil, err
	}
	half, err := r.pd.Power(int(r.spacing / 2))
	if err != nil {
		return nil, err
	}
	idx := make(map[int]int, len(need))
	for i, v := range need {
		idx[v] = i
	}
	data := matrix.MustNew(len(need), len(need))
	leader := r.leader
	// Each machine hosting a needed vertex sends its row restricted to the
	// needed set to the leader.
	err = r.sim.Superstep("core/submatrix", func(id int, in []clique.Message) ([]clique.Message, error) {
		var needList []clique.Word
		for _, m := range in {
			if m.Tag == tagSubEntry {
				needList = m.Words
			}
		}
		if needList == nil {
			return nil, fmt.Errorf("machine %d missed the submatrix broadcast", id)
		}
		// Which local vertex does this machine host (if any)?
		la, err := r.sub.LocalIndex(id)
		if err != nil {
			return nil, nil // not hosting a subset vertex
		}
		if _, needed := idx[la]; !needed {
			return nil, nil
		}
		msgs := make([]clique.Message, 0, len(needList))
		for _, bw := range needList {
			b := bw.Int()
			msgs = append(msgs, clique.Message{
				To:  leader,
				Tag: tagSubEntry,
				Words: []clique.Word{
					clique.IntWord(la),
					clique.IntWord(b),
					clique.FloatWord(half.At(la, b)),
				},
			})
		}
		return msgs, nil
	})
	if err != nil {
		return nil, err
	}
	err = r.sim.Superstep("core/submatrix-absorb", func(id int, in []clique.Message) ([]clique.Message, error) {
		if id != leader {
			return nil, nil
		}
		for _, m := range in {
			if m.Tag != tagSubEntry {
				continue
			}
			a, b := m.Words[0].Int(), m.Words[1].Int()
			data.Set(idx[a], idx[b], m.Words[2].Float())
		}
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	return &submat{idx: idx, data: data}, nil
}

// fetchSubmatrixCharged is the charged-mode port of fetchSubmatrix: the
// broadcast of the needed set and the hosts' 3-word row replies are charged
// from the pattern while the leader reads the block straight out of the
// shared power table.
func (r *phaseRunner) fetchSubmatrixCharged(need []int) (*submat, error) {
	if err := r.sim.ChargeBroadcast(len(need)); err != nil {
		return nil, err
	}
	half, err := r.pd.Power(int(r.spacing / 2))
	if err != nil {
		return nil, err
	}
	// The caller built need under the current seen epoch (every member is
	// marked, nothing else is), so the stamp doubles as the membership test
	// for subIdx.
	for i, v := range need {
		r.sc.subIdx[v] = i
	}
	data := matrix.Scratch(len(need), len(need))
	plan := r.sc.plan
	plan.Reset()
	err = r.sim.ChargedSuperstep("core/submatrix", plan, func() error {
		for ai, a := range need {
			plan.AddN(r.hostOf(a), r.leader, 3, len(need))
			for bi, b := range need {
				data.Set(ai, bi, half.At(a, b))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := r.sim.ChargedSuperstep("core/submatrix-absorb", nil, nil); err != nil {
		return nil, err
	}
	return &submat{sc: r.sc, data: data}, nil
}
