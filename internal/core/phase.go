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

// phaseRunner is the sampler state of one draw at a time. A Prepared pools
// its runners, and draw runs one draw's phases; each phase begins with
// beginPhase and each of its walk segments (one, or several under Las
// Vegas) with beginSegment. A phase is a truncated top-down walk on the
// phase's transition matrix, then first-visit edge recovery.
//
// It is also the scratch arena of its draws: the per-level protocol steps —
// pair assignment, midpoint generation, the count collections of the
// truncation search, and midpoint placement — and first-visit recovery
// reuse flat buffers and per-machine random sources instead of allocating
// them a few thousand times per tree. Everything in the arena is
// bookkeeping that is set, or reset by epoch, before it is read; nothing
// observable (trees, Stats, traces) depends on the reuse, or on what an
// earlier draw, failed or not, left behind.
//
// It is single-goroutine state: both clique executors call a declaration's
// send and receive functions from the calling goroutine, and the protocol's
// declarations (proto) act on this state directly.
type phaseRunner struct {
	// The sampler's inputs, and the draw's simulator and Stats.
	sim    *clique.Sim
	g      *graph.Graph
	cfg    Config
	warm   *Prepared // Prepare's phase-0 table; nil recomputes it
	stats  *Stats
	n      int // machine count; local indices and pair codes are < n and n²
	maxExp int // log2 of the walk length: the power table's top exponent
	proto  *protocol

	// The draw's bookkeeping: the vertices visited so far, the next phase's
	// subset members, and the tree's first-visit edges.
	visited   stamp
	members   []int
	treeEdges []graph.Edge
	// The phase's and the segment's random sources, split in place.
	phaseSrc, segSrc prng.Source

	// The phase, set by beginPhase.
	sub   *schur.Subset
	phase int // phase index; phase 0 walks on G itself (see shortcut)
	rho   int // distinct-vertex budget this phase
	// hosts maps a local subset index to the global machine hosting it
	// (sub.Vertices(), fetched once — the protocol loops consult it per
	// message charge).
	hosts []int
	// walked marks the local indices the phase's completed Las Vegas
	// segments visited, walkedN of them. They count toward the rho budget,
	// but a reappearance is never a "first occurrence" (appendix §5.1).
	walked  stamp
	walkedN int
	// q holds the shortcut rows the first-visit step reads, one per
	// distinct Schur-walk predecessor of a first visit (qRow maps a global
	// vertex to its row). firstVisitEdges builds them once the phase walk is
	// known; nil before that and in phase 0.
	q *matrix.Matrix

	// The segment, set by beginSegment.
	pd     *matrix.PowerDyadic
	built  bool // pd was built for this segment, not taken from Prepared
	leader int  // global machine id of leader (hosts the segment's start)
	// src seeds the per-machine randomness; rngs[id] is machine id's
	// stream, split in place from src on first use in the segment (split
	// marks which). Stream derivation depends only on (src seed, machine
	// id), so laziness is draw-for-draw identical to splitting every
	// machine up front.
	src   *prng.Source
	rngs  []prng.Source
	split stamp

	// Leader-local walk state: dense dyadic grid in local indices.
	walk    []int
	spacing int64
	// half is P^(δ/2) at the current level's spacing δ, the power the
	// midpoint weights and the leader's submatrix read.
	half *matrix.Matrix
	// The most recent count collection's candidate and result. bsSlots is
	// the candidate's slot prefix. On the materializing executor the leader
	// receives the prefix's midpoint multiset (counts) and bsMf, the
	// midpoint value at the prefix's last slot (-1 if none). On the charged
	// executor the collection's charged forms hand it the prefix's row of
	// the level tables instead, and bsTabled is set (see truncation.go).
	bsSlots  int
	bsMf     int
	bsTabled bool
	// The level tables the charged collections read, built once per level
	// by tabulatePrefixes: a row per slot prefix, the predicate's inputs
	// per grid index, and the per-pair first-occurrence flags
	// (pairFirst[pairOff[oi]+t]: midpoint t of pair oi is its first
	// occurrence in the pair's sequence), with the per-machine loads the
	// pass accumulates.
	prefixRows []prefixRow
	grid       []gridPoint
	pairFirst  []bool
	pairOff    []int
	loads      []machineLoad
	midSeen    stamp

	// Leader-local slot bookkeeping for the current level: slot j (1-based)
	// sits between walk[j-1] and walk[j].
	slotPair []pairKey
	slotOcc  []int // occurrence index (1-based) of the slot within its pair
	slotIdx  []int // pair order index of the slot's pair

	// Pair bookkeeping for the current level. pairIdx maps the dense pair
	// code p*n+q to the pair's first-appearance index, epoch-stamped so a new
	// level invalidates it in O(1).
	pairIdx      []int32
	pairIdxepoch []uint32
	pairEpoch    uint32
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

	// The materializing count step's prefix count by order index.
	prefixCount []int

	counts dense // the leader's collected midpoint multiset
	totals dense // per-collection tally aggregate
	local  dense // per-pair prefix tally
	seen   stamp // distinct-vertex marking (truncation check, need sets)

	vertices  []int
	rowsBuf   []int
	needList  []int
	subIdx    []int // needed vertex -> block index, valid under seen's epoch
	needHosts []int // machine hosting each needed vertex
	leaderTo  []int // the leader once per needed vertex: the block's receiving units
	// block is the leader's fetched block of P^(δ/2) over needList (see
	// subAt).
	block     *matrix.Matrix
	placedBuf []int // slot -> placed midpoint, one placement at a time
	walkBuf   []int // spare walk buffer; swaps with the live walk each level

	aliasB prng.AliasBuilder

	// First-visit recovery (Algorithm 4): the phase's visits, and per
	// machine (global id) the predecessor it was told, the requests it got,
	// the replies it got, and the entry neighbor reported for it (-1: none).
	// Machine u's requests fill fvReqBuf[fvReqOff[u]:fvReqEnd[u]] and
	// visited vertex v's replies fvEntBuf[fvEntOff[v]:fvEntEnd[v]], at
	// offsets a counting pass sets before the requests go out.
	visits   []fvVisit
	fvPrev   []int
	fvReqBuf []fvReq
	fvReqOff []int
	fvReqEnd []int
	fvEntBuf []fvReply
	fvEntOff []int
	fvEntEnd []int
	fvEdge   []int
	newVerts []int // the phase's first visits, global ids
	weights  []float64
	// The phase's shortcut rows: qFrom lists their start vertices, and
	// qRow maps a global vertex to its row (-1: none).
	qFrom []int
	qRow  []int
}

// newPhaseRunner builds a sampler state, ready for a draw on sim whose
// Stats it fills. A non-nil warm carries Prepare's cached phase-0 table
// (see beginSegment).
func newPhaseRunner(sim *clique.Sim, g *graph.Graph, cfg Config, warm *Prepared, stats *Stats) *phaseRunner {
	n := g.N()
	r := &phaseRunner{
		sim:          sim,
		g:            g,
		cfg:          cfg,
		warm:         warm,
		stats:        stats,
		n:            n,
		maxExp:       int(math.Log2(float64(cfg.WalkLength)) + 0.5),
		visited:      newStamp(n),
		walked:       newStamp(n),
		rngs:         make([]prng.Source, n),
		split:        newStamp(n),
		pairIdx:      make([]int32, n*n),
		pairIdxepoch: make([]uint32, n*n),
		pairsOn:      make([]int, n),
		loads:        make([]machineLoad, n),
		midSeen:      newStamp(n),
		counts:       newDense(n),
		totals:       newDense(n),
		local:        newDense(n),
		seen:         newStamp(n),
		subIdx:       make([]int, n),
		fvPrev:       make([]int, n),
		fvReqOff:     make([]int, n),
		fvReqEnd:     make([]int, n),
		fvEntOff:     make([]int, n),
		fvEntEnd:     make([]int, n),
		fvEdge:       make([]int, n),
		qRow:         make([]int, n),
	}
	for v := range r.qRow {
		r.qRow[v] = -1
	}
	r.proto = newProtocol(r)
	return r
}

// beginPhase starts a phase over the subset sub: the walk on Schur(G, S)
// with S = sub, whose completed segments have visited nothing yet.
func (r *phaseRunner) beginPhase(sub *schur.Subset, phase int) {
	r.sub, r.phase = sub, phase
	r.rho = min(r.cfg.Rho, sub.Size())
	r.hosts = sub.Vertices()
	r.walked.reset()
	r.walkedN = 0
}

// beginSegment starts a walk segment of the current phase from the local
// vertex start, with per-machine randomness split from src: the transition
// matrix of Schur(G, S), the shortcut build's round charge (later phases
// only), the dyadic power table (with round charging), and the initial
// two-vertex partial walk. Each segment builds its table afresh, or replays
// phase 0's: a non-nil warm carries Prepare's cached phase-0 table, since
// phase 0 always walks the full vertex set, so its power table is a
// per-graph constant that only the charging (not the numeric work) needs to
// be replayed for. Every later phase walks on a subset that depends on the
// walk so far and is built fresh.
func (r *phaseRunner) beginSegment(start int, src *prng.Source) error {
	r.releaseTable()
	// The phase-0 state is usable only under the Fast backend, whose Mul is
	// the same local matrix.Mul Prepare built it with and whose round charges
	// ReplayDyadicTable reproduces exactly. The dataflow backends (naive,
	// semiring3d) route real words through the simulator and may accumulate
	// in a different order, so they always build in-simulation — identical
	// numerics and accounting, no reuse benefit.
	if _, fast := r.cfg.Backend.(mm.Fast); r.warm != nil && fast && r.phase == 0 && r.sub.Size() == r.n {
		r.pd = r.warm.pd0
		if err := mm.ReplayDyadicTable(r.sim, r.cfg.Backend, r.pd); err != nil {
			return fmt.Errorf("core: replaying dyadic power table: %w", err)
		}
	} else {
		pd, err := buildPhaseState(r.sim, r.g, r.cfg, r.sub, r.phase, r.maxExp)
		if err != nil {
			return err
		}
		r.pd, r.built = pd, true
	}
	r.leader = r.hostOf(start)
	r.src = src
	r.split.reset()

	// Outline 3 steps 3-4: sample the endpoint from S^l[start, *]. The
	// leader holds its own row of every power, so this is a local draw.
	endPow, err := r.pd.Power(int(r.cfg.WalkLength))
	if err != nil {
		return err
	}
	end, err := r.rng(r.leader).WeightedIndex(endPow.Row(start))
	if err != nil {
		return fmt.Errorf("core: sampling phase endpoint: %w", err)
	}
	r.walk = []int{start, end}
	r.spacing = r.cfg.WalkLength
	r.truncateWalkLocal()
	return nil
}

// markWalked adds a completed segment's walk to the phase's walked set.
func (r *phaseRunner) markWalked(walk []int) {
	for _, v := range walk {
		if r.walked.mark(v) {
			r.walkedN++
		}
	}
}

// releaseTable returns a power table the current segment built to the
// matrix scratch pool; the Prepared's phase-0 table is shared and stays.
func (r *phaseRunner) releaseTable() {
	if r.built {
		r.pd.Release()
		r.built = false
	}
	r.pd = nil
}

// endPhase returns the phase state the runner built — the last segment's
// power table and the shortcut rows — to the matrix scratch pool once the
// phase is over (releasing a nil matrix is a no-op), and forgets the power
// it last read from the table. Recycling keeps a sample's allocation, and
// with it the garbage collector's work, to the walk's own state.
func (r *phaseRunner) endPhase() {
	r.releaseTable()
	r.half = nil
	if r.q != nil {
		r.q.Release()
		r.q = nil
		r.resetShortcutRows()
	}
}

// buildShortcutRows solves the shortcut rows the first-visit step reads:
// Q[prev, *] for each distinct predecessor prev of the phase's first visits
// (r.visits), in first-appearance order. Phase 0 reads the identity and
// builds none. A Las Vegas phase builds them once, after its last segment,
// over the whole extended walk: every segment walks the same subset, so
// their rows are the same.
func (r *phaseRunner) buildShortcutRows() error {
	if r.phase == 0 {
		return nil
	}
	from := r.qFrom[:0]
	for _, vis := range r.visits {
		if r.qRow[vis.prev] < 0 {
			r.qRow[vis.prev] = len(from)
			from = append(from, vis.prev)
		}
	}
	r.qFrom = from
	q, err := schur.ShortcutRows(r.g, r.sub, from)
	if err != nil {
		r.resetShortcutRows()
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
		return r.q.At(r.qRow[prev], u)
	}
	if u == prev {
		return 1
	}
	return 0
}

// rng returns machine id's random stream, splitting it in place from the
// segment source on first use. Splitting is a pure function of (source
// seed, id), so lazy creation yields the exact stream an eager split would.
func (r *phaseRunner) rng(id int) *prng.Source {
	s := &r.rngs[id]
	if r.split.mark(id) {
		r.src.SplitInto(s, uint64(id))
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
	seen := &r.seen
	seen.reset()
	distinct := r.walkedN
	for i, v := range r.walk {
		if !r.walked.has(v) && seen.mark(v) {
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
	k := len(r.walk) - 1
	r.resetLevel()
	r.slotPair = growSlice(r.slotPair, k+1) // slots 1..k
	r.slotOcc = growSlice(r.slotOcc, k+1)
	r.slotIdx = growSlice(r.slotIdx, k+1)
	for j := 1; j <= k; j++ {
		p, q := r.walk[j-1], r.walk[j]
		oi := r.pairLookup(p, q)
		if oi < 0 {
			oi = r.pairInsert(p, q)
		}
		r.pairCounts[oi]++
		r.slotPair[j] = pairKey{p: p, q: q}
		r.slotOcc[j] = r.pairCounts[oi]
		r.slotIdx[j] = oi
	}
	order := r.pairOrder
	r.pairMachine = growSlice(r.pairMachine, len(order))
	for rank := range order {
		r.pairMachine[rank] = rank % r.n
	}

	r.readyPairs()
	return clique.Run(r.sim, &r.proto.assign)
}

// generateMidpoints implements Algorithm 2 steps 4-5: each pair machine
// acquires its midpoint distribution from the vertex machines and samples
// its sequence Π_{p,q}.
func (r *phaseRunner) generateMidpoints() error {
	hosts := r.hosts[:r.sub.Size()]
	machines := r.pairMachine[:len(r.pairOrder)]
	req := &r.proto.distreq
	req.From, req.To = machines, hosts
	if err := clique.RunDense(r.sim, req); err != nil {
		return err
	}
	half, err := r.pd.Power(int(r.spacing / 2))
	if err != nil {
		return err
	}
	r.half = half
	reply := &r.proto.distreply
	reply.From, reply.To = hosts, machines
	if err := clique.RunDense(r.sim, reply); err != nil {
		return err
	}
	// Pair machines sample their sequences locally (Walker's alias method:
	// a pair drawing once replays the table's construction only up to the
	// drawn index). Iterating pairs in order index consumes each machine's
	// stream in its own pair order.
	return clique.Local(r.sim, "core/generate", func() error {
		for oi, ps := range r.orderedPS {
			if err := r.aliasB.SampleInto(ps.weights, r.rng(machines[oi]), ps.seq); err != nil {
				return fmt.Errorf("pair (%d,%d) at gap %d has empty midpoint distribution: %w", ps.key.p, ps.key.q, r.spacing, err)
			}
		}
		return nil
	})
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
	r.expandRow()
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
	counts := &r.counts
	total := 0
	vertices := r.vertices[:0]
	for _, v := range counts.touched {
		total += counts.val[v]
		vertices = append(vertices, v)
	}
	r.vertices = vertices
	if total != lastSlot {
		return fmt.Errorf("core: multiset holds %d midpoints, prefix has %d slots", total, lastSlot)
	}
	sort.Ints(vertices)
	rows := r.rowsBuf[:0]
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
	r.rowsBuf = rows
	if !mfTaken {
		return fmt.Errorf("core: final midpoint %d not present in collected multiset", r.bsMf)
	}

	// The leader fetches the O(√n) x O(√n) submatrix of P^(δ/2) restricted
	// to the vertices it needs: walk prefix vertices and midpoints
	// (§2.1.3: broadcast S, receive the submatrix in O(1) rounds).
	seen := &r.seen
	seen.reset()
	need := r.needList[:0]
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
	r.needList = need
	sort.Ints(need)
	if err := r.fetchSubmatrix(); err != nil {
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
	r.placedBuf = growSlice(r.placedBuf, lastSlot+1)
	placed := r.placedBuf // slot -> midpoint vertex (1-based); every read slot is written below
	placed[lastSlot] = r.bsMf
	switch {
	case k == 0:
		// Only the final midpoint exists.
	case k <= matchingLimit && !r.cfg.DirectPlacement:
		w := matrix.Scratch(k, k)
		for ri, x := range rows {
			for j := 1; j <= k; j++ {
				key := r.slotPair[j]
				w.Set(ri, j-1, r.subAt(key.p, x)*r.subAt(x, key.q))
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
			ps := r.orderedPS[r.slotIdx[j]]
			occ := r.slotOcc[j]
			if occ > len(ps.seq) {
				return fmt.Errorf("core: slot %d occurrence %d beyond sequence of %d", j, occ, len(ps.seq))
			}
			placed[j] = ps.seq[occ-1]
		}
	}

	// Assemble W_{i+1}: alternate walk vertices and placed midpoints up to
	// grid index ellStar, at half the spacing. The next walk is built in the
	// spare buffer and the outgoing walk becomes the new spare — only a
	// segment's final walk escapes the level loop (to runPhase), and that one
	// is never recycled because the next segment starts from a fresh
	// two-vertex slice.
	r.block.Release()
	next := growSlice(r.walkBuf, int(ellStar)+1)[:0]
	for g := int64(0); g <= ellStar; g++ {
		if g%2 == 0 {
			next = append(next, r.walk[g/2])
		} else {
			next = append(next, placed[(g+1)/2])
		}
	}
	r.walkBuf = r.walk[:0]
	r.walk = next
	r.spacing /= 2
	return nil
}

// subAt reads P^(δ/2)[a, b] from the leader's fetched block over the needed
// vertices, keyed by local indices, and 0 off that set: the seen stamp
// (still marking exactly the needed set from placeMidpoints' need-list
// construction) is the membership test and subIdx the position. The block
// is stored transposed, row b holding what every needed vertex sent for b.
func (r *phaseRunner) subAt(a, b int) float64 {
	if !r.seen.has(a) || !r.seen.has(b) {
		return 0
	}
	return r.block.At(r.subIdx[b], r.subIdx[a])
}

// fetchSubmatrix broadcasts the needed vertex set (r.needList) and collects
// the corresponding block of P^(δ/2) at the leader, in r.block.
func (r *phaseRunner) fetchSubmatrix() error {
	need := r.needList
	err := clique.RunBroadcast(r.sim, r.leader, len(need), func(dst []clique.Word) []clique.Word { return clique.AppendInts(dst, need...) })
	if err != nil {
		return err
	}
	half, err := r.pd.Power(int(r.spacing / 2))
	if err != nil {
		return err
	}
	r.half = half
	k := len(need)
	r.needHosts = growSlice(r.needHosts, k)
	r.leaderTo = growSlice(r.leaderTo, k)
	for i, v := range need {
		r.subIdx[v] = i
		r.needHosts[i] = r.hostOf(v)
		r.leaderTo[i] = r.leader
	}
	r.block = matrix.Scratch(k, k)
	d := &r.proto.submatrix
	d.From, d.To = r.needHosts, r.leaderTo
	if err := clique.RunDense(r.sim, d); err != nil {
		return err
	}
	if err := clique.Local(r.sim, "core/submatrix-absorb", nil); err != nil {
		return err
	}
	return nil
}
