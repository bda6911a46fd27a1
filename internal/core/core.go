package core

import (
	"fmt"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/prng"
	"repro/internal/schur"
	"repro/internal/spanning"
)

// Sample draws an approximately uniform spanning tree of g on the simulated
// congested clique (Theorem 1). It returns the tree, the cost statistics of
// the run, and the simulator (for callers that want the superstep trace).
//
// The returned tree's distribution is within the configured total variation
// budget of uniform; with the exact matching sampler (the default for the
// instance sizes the simulator meets) the only deviation from exactness is
// the Monte Carlo walk-length cap, whose failure probability the epsilon
// parameter controls (§2.1, §2.3).
func Sample(g *graph.Graph, cfg Config, src *prng.Source) (*spanning.Tree, *Stats, error) {
	n := g.N()
	if src == nil {
		return nil, nil, fmt.Errorf("core: nil randomness source")
	}
	if n == 1 {
		tree, err := spanning.NewTree(1, nil)
		return tree, &Stats{}, err
	}
	cfg, err := cfg.withDefaults(n)
	if err != nil {
		return nil, nil, err
	}
	if !g.IsConnected() {
		return nil, nil, fmt.Errorf("core: graph must be connected")
	}
	return sampleLoop(g, cfg, src, nil, nil, 0)
}

// sampleLoop runs the phase loop on a validated instance (n >= 2, cfg with
// defaults applied, g connected, src non-nil). A non-nil warm supplies the
// cached phase-0 state of Prepare; nil recomputes everything in-simulation,
// the original cold path. A non-nil tr attaches observation spans (per phase
// and per superstep, tagged with tag); tracing never feeds back into the run.
func sampleLoop(g *graph.Graph, cfg Config, src *prng.Source, warm *Prepared, tr *obs.Trace, tag int64) (*spanning.Tree, *Stats, error) {
	n := g.N()
	sim := clique.MustNew(n)
	sim.SetTrace(tr, tag)
	stats := &Stats{}

	visited := make([]bool, n)
	// One scratch arena serves every phase runner (and Las Vegas segment) of
	// this sample; see phaseScratch.
	sc := newPhaseScratch(n)
	// Machine 1 (index 0) hosts the start vertex (Algorithm 1 step 1).
	start := 0
	visited[start] = true
	visitedCount := 1
	firstVisitEdges := make([]graph.Edge, 0, n-1)

	for phase := 0; visitedCount < n; phase++ {
		if phase >= maxPhases(n) {
			return nil, nil, fmt.Errorf("core: exceeded %d phases with %d of %d vertices visited", maxPhases(n), visitedCount, n)
		}
		phaseSpan := sim.TraceSpan("core/phase")
		phaseSpan.SetInt("phase", int64(phase))
		// S = unvisited vertices plus the walk's current endpoint (§2.2).
		members := make([]int, 0, n-visitedCount+1)
		members = append(members, start)
		for v := 0; v < n; v++ {
			if !visited[v] {
				members = append(members, v)
			}
		}
		sub, err := schur.NewSubset(n, members)
		if err != nil {
			return nil, nil, err
		}
		rhoPhase := cfg.Rho
		if rhoPhase > sub.Size() {
			rhoPhase = sub.Size()
		}
		// Build the phase walk; under LasVegas (appendix §5.1) the walk is
		// extended segment by segment from its endpoint until the distinct
		// budget is met, so coverage failures cannot occur.
		phaseSrc := src.Split(uint64(1000 + phase))
		preSeen := map[int]struct{}{}
		var walkLocal []int
		var runner *phaseRunner
		segStart := start
		for segment := 0; ; segment++ {
			r, err := newPhaseRunner(sim, g, cfg, sub, segStart, phase, preSeen, phaseSrc.Split(uint64(segment)), stats, warm, sc)
			if err != nil {
				return nil, nil, fmt.Errorf("core: phase %d: %w", phase, err)
			}
			segWalk, err := r.run()
			if err != nil {
				return nil, nil, fmt.Errorf("core: phase %d: %w", phase, err)
			}
			if runner != nil {
				runner.release()
			}
			runner = r
			if segment == 0 {
				walkLocal = segWalk
			} else {
				// The segment starts at the previous endpoint; drop the
				// duplicated join vertex.
				walkLocal = append(walkLocal, segWalk[1:]...)
				stats.Extensions++
			}
			if !cfg.LasVegas {
				break
			}
			distinct := map[int]struct{}{}
			for _, v := range walkLocal {
				distinct[v] = struct{}{}
			}
			if len(distinct) >= rhoPhase {
				break
			}
			if segment+1 >= maxExtensions {
				return nil, nil, fmt.Errorf("core: phase %d needed more than %d Las Vegas extensions", phase, maxExtensions)
			}
			preSeen = distinct
			lastLocal := walkLocal[len(walkLocal)-1]
			segGlobal, err := sub.VertexAt(lastLocal)
			if err != nil {
				return nil, nil, err
			}
			segStart = segGlobal
		}
		stats.WalkSteps += len(walkLocal) - 1

		edges, newGlobal, err := runner.firstVisitEdges(walkLocal)
		runner.release()
		if err != nil {
			return nil, nil, fmt.Errorf("core: phase %d first-visit edges: %w", phase, err)
		}
		firstVisitEdges = append(firstVisitEdges, edges...)
		for _, v := range newGlobal {
			if visited[v] {
				return nil, nil, fmt.Errorf("core: phase %d revisited vertex %d", phase, v)
			}
			visited[v] = true
			visitedCount++
		}
		stats.Phases++
		stats.NewVertices = append(stats.NewVertices, len(newGlobal))
		if len(newGlobal) == 0 {
			return nil, nil, fmt.Errorf("core: phase %d made no progress", phase)
		}
		// Next phase continues from the final vertex of this phase's walk.
		last, err := sub.VertexAt(walkLocal[len(walkLocal)-1])
		if err != nil {
			return nil, nil, err
		}
		start = last
		phaseSpan.SetInt("new_vertices", int64(len(newGlobal)))
		phaseSpan.End()
	}

	stats.Rounds = sim.Rounds()
	stats.Supersteps = sim.Supersteps()
	stats.TotalWords = sim.TotalWords()
	tree, err := spanning.NewTree(n, firstVisitEdges)
	if err != nil {
		return nil, nil, fmt.Errorf("core: assembling tree: %w", err)
	}
	return tree, stats, nil
}

// firstVisitEdges runs the Algorithm 4 protocol for one phase walk: for
// every distinct vertex v (other than the phase start) of the walk on
// Schur(G, S), sample the G-edge by which the underlying G-walk first
// entered v. It returns the sampled edges and the newly visited global
// vertices in first-visit order.
func (r *phaseRunner) firstVisitEdges(walkLocal []int) ([]graph.Edge, []int, error) {
	seen := &r.sc.seen
	seen.reset()
	seen.mark(walkLocal[0])
	visits := r.sc.visits[:0]
	for i := 1; i < len(walkLocal); i++ {
		lv := walkLocal[i]
		if !seen.mark(lv) {
			continue
		}
		visits = append(visits, fvVisit{prev: r.hostOf(walkLocal[i-1]), v: r.hostOf(lv)})
	}
	r.sc.visits = visits
	if len(visits) == 0 {
		return nil, nil, nil
	}
	var edgeOf map[int]int
	var err error
	if r.charged {
		edgeOf, err = r.firstVisitEdgesCharged(visits)
	} else {
		edgeOf, err = r.firstVisitEdgesFull(visits)
	}
	if err != nil {
		return nil, nil, err
	}

	edges := make([]graph.Edge, 0, len(visits))
	order := make([]int, 0, len(visits))
	for _, vis := range visits {
		u, ok := edgeOf[vis.v]
		if !ok {
			return nil, nil, fmt.Errorf("core: no entry edge reported for vertex %d", vis.v)
		}
		edges = append(edges, graph.Edge{U: min(u, vis.v), V: max(u, vis.v), Weight: 1})
		order = append(order, vis.v)
	}
	return edges, order, nil
}

// fvVisit is one first visit of the phase walk: the visited vertex and its
// Schur-walk predecessor, in global ids.
type fvVisit struct{ prev, v int }

// firstVisitEdgesFull runs the Algorithm 4 protocol with full message
// dataflow, returning each visited vertex's sampled entry neighbor.
func (r *phaseRunner) firstVisitEdgesFull(visits []fvVisit) (map[int]int, error) {
	leader := r.leader

	// Superstep 1: leader tells each newly visited vertex its predecessor
	// in the Schur walk (Algorithm 4 step 4).
	err := r.sim.Superstep("core/fve/notify", func(id int, in []clique.Message) ([]clique.Message, error) {
		if id != leader {
			return nil, nil
		}
		msgs := make([]clique.Message, 0, len(visits))
		for _, vis := range visits {
			msgs = append(msgs, clique.Message{
				To:    vis.v,
				Tag:   tagFveNotify,
				Words: []clique.Word{clique.IntWord(vis.prev)},
			})
		}
		return msgs, nil
	})
	if err != nil {
		return nil, err
	}
	// Superstep 2: each notified vertex asks its G-neighbors for the Bayes
	// weight (Algorithm 4 steps 5-6).
	err = r.sim.Superstep("core/fve/request", func(id int, in []clique.Message) ([]clique.Message, error) {
		var msgs []clique.Message
		for _, m := range in {
			if m.Tag != tagFveNotify {
				continue
			}
			prev := m.Words[0].Int()
			r.g.VisitNeighbors(id, func(h graph.Half) {
				msgs = append(msgs, clique.Message{
					To:    h.To,
					Tag:   tagFveReq,
					Words: []clique.Word{clique.IntWord(id), clique.IntWord(prev)},
				})
			})
		}
		return msgs, nil
	})
	if err != nil {
		return nil, err
	}
	// Superstep 3: neighbor u answers with Q[prev, u] * w(u,v)/degS(u).
	err = r.sim.Superstep("core/fve/reply", func(id int, in []clique.Message) ([]clique.Message, error) {
		var msgs []clique.Message
		var degS float64
		degKnown := false
		for _, m := range in {
			if m.Tag != tagFveReq {
				continue
			}
			v, prev := m.Words[0].Int(), m.Words[1].Int()
			if !degKnown {
				r.g.VisitNeighbors(id, func(h graph.Half) {
					if r.sub.Contains(h.To) {
						degS += h.Weight
					}
				})
				degKnown = true
			}
			if degS <= 0 {
				return nil, fmt.Errorf("machine %d adjacent to S-vertex %d has degS=0", id, v)
			}
			weight := r.q.At(prev, id) * r.g.Weight(id, v) / degS
			msgs = append(msgs, clique.Message{
				To:    v,
				Tag:   tagFveReply,
				Words: []clique.Word{clique.IntWord(id), clique.FloatWord(weight)},
			})
		}
		return msgs, nil
	})
	if err != nil {
		return nil, err
	}
	// Superstep 4: each vertex samples its entry edge and reports it to the
	// leader (Algorithm 4 step 7).
	err = r.sim.Superstep("core/fve/sample", func(id int, in []clique.Message) ([]clique.Message, error) {
		var nbrs []int
		var weights []float64
		for _, m := range in {
			if m.Tag != tagFveReply {
				continue
			}
			nbrs = append(nbrs, m.Words[0].Int())
			weights = append(weights, m.Words[1].Float())
		}
		if len(nbrs) == 0 {
			return nil, nil
		}
		choice, err := r.rng(id).WeightedIndex(weights)
		if err != nil {
			return nil, fmt.Errorf("vertex %d has no mass on any entry edge: %w", id, err)
		}
		return []clique.Message{{
			To:    leader,
			Tag:   tagFveEdge,
			Words: []clique.Word{clique.IntWord(nbrs[choice]), clique.IntWord(id)},
		}}, nil
	})
	if err != nil {
		return nil, err
	}
	// Superstep 5: leader absorbs the edges.
	edgeOf := make(map[int]int, len(visits)) // v -> sampled entry neighbor
	err = r.sim.Superstep("core/fve/absorb", func(id int, in []clique.Message) ([]clique.Message, error) {
		if id != leader {
			return nil, nil
		}
		for _, m := range in {
			if m.Tag == tagFveEdge {
				edgeOf[m.Words[1].Int()] = m.Words[0].Int()
			}
		}
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	return edgeOf, nil
}

// firstVisitEdgesCharged is the charged-mode port of the Algorithm 4
// protocol: the same five supersteps with identical per-message charges —
// one notify word per visit, a 2-word request and reply per (visit,
// neighbor) edge, a 2-word report per visit — with the Bayes weights read
// straight from the shared shortcut matrix. Each visited vertex's entry
// distribution lists its neighbors in ascending id order, exactly the
// sorted-inbox order the full path samples from, and draws from the same
// per-machine rng stream, so the sampled edges are byte-identical.
func (r *phaseRunner) firstVisitEdgesCharged(visits []fvVisit) (map[int]int, error) {
	leader := r.leader
	plan := r.sc.plan
	plan.Reset()

	// Superstep 1 (core/fve/notify): leader tells each newly visited vertex
	// its predecessor.
	for _, vis := range visits {
		plan.Add(leader, vis.v, 1)
	}
	if err := r.sim.ChargedSuperstep("core/fve/notify", plan, nil); err != nil {
		return nil, err
	}

	// Superstep 2 (core/fve/request): each visited vertex asks its
	// G-neighbors for the Bayes weight.
	plan.Reset()
	for _, vis := range visits {
		v := vis.v
		r.g.VisitNeighbors(v, func(h graph.Half) {
			plan.Add(v, h.To, 2)
		})
	}
	if err := r.sim.ChargedSuperstep("core/fve/request", plan, nil); err != nil {
		return nil, err
	}

	// Superstep 3 (core/fve/reply): neighbor u answers with
	// Q[prev, u] * w(u,v)/degS(u); entries are kept per visit in ascending
	// neighbor order (the full path's sorted-inbox order). degS is computed
	// once per responding neighbor, as each machine does for itself.
	type entry struct {
		u int
		w float64
	}
	entries := make([][]entry, len(visits))
	degS := make(map[int]float64)
	plan.Reset()
	err := r.sim.ChargedSuperstep("core/fve/reply", plan, func() error {
		for vi, vis := range visits {
			v := vis.v
			nbrs := make([]entry, 0, r.g.NeighborCount(v))
			var stepErr error
			r.g.VisitNeighbors(v, func(h graph.Half) {
				if stepErr != nil {
					return
				}
				u := h.To
				d, ok := degS[u]
				if !ok {
					r.g.VisitNeighbors(u, func(hh graph.Half) {
						if r.sub.Contains(hh.To) {
							d += hh.Weight
						}
					})
					degS[u] = d
				}
				if d <= 0 {
					stepErr = fmt.Errorf("machine %d adjacent to S-vertex %d has degS=0", u, v)
					return
				}
				plan.Add(u, v, 2)
				nbrs = append(nbrs, entry{u: u, w: r.q.At(vis.prev, u) * h.Weight / d})
			})
			if stepErr != nil {
				return stepErr
			}
			// Neighbor ids are distinct, so this insertion sort produces
			// exactly sort.Slice's ascending order without its closure and
			// swapper allocations.
			for i := 1; i < len(nbrs); i++ {
				for j := i; j > 0 && nbrs[j].u < nbrs[j-1].u; j-- {
					nbrs[j], nbrs[j-1] = nbrs[j-1], nbrs[j]
				}
			}
			entries[vi] = nbrs
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Superstep 4 (core/fve/sample): each visited vertex samples its entry
	// edge and reports it to the leader (2 words per visit).
	plan.Reset()
	froms := make([]int, len(visits))
	for i, vis := range visits {
		froms[i] = vis.v
	}
	plan.Gather(froms, leader, 2)
	edgeOf := make(map[int]int, len(visits))
	err = r.sim.ChargedSuperstep("core/fve/sample", plan, func() error {
		for vi, vis := range visits {
			es := entries[vi]
			weights := growFloats(r.sc.weights, len(es))
			r.sc.weights = weights
			for i, e := range es {
				weights[i] = e.w
			}
			choice, err := r.rng(vis.v).WeightedIndex(weights)
			if err != nil {
				return fmt.Errorf("vertex %d has no mass on any entry edge: %w", vis.v, err)
			}
			edgeOf[vis.v] = es[choice].u
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Superstep 5 (core/fve/absorb): leader absorbs — computation only.
	if err := r.sim.ChargedSuperstep("core/fve/absorb", nil, nil); err != nil {
		return nil, err
	}
	return edgeOf, nil
}
