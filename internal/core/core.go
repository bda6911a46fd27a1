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

// newSim builds each sample's simulator. Tests swap in
// clique.NewMaterializing to run the same protocol declarations on the
// materializing executor.
var newSim = clique.MustNew

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
// cached phase-0 state of Prepare and the pool of sampler states the draw
// takes its own from; nil recomputes everything in-simulation, the original
// cold path, on a fresh sampler state. A non-nil tr attaches observation
// spans (per phase and per superstep, tagged with tag); tracing never feeds
// back into the run.
func sampleLoop(g *graph.Graph, cfg Config, src *prng.Source, warm *Prepared, tr *obs.Trace, tag int64) (*spanning.Tree, *Stats, error) {
	sim := newSim(g.N())
	sim.SetTrace(tr, tag)
	if warm == nil {
		return newPhaseRunner(sim, g, cfg, nil, &Stats{}).draw(src)
	}
	r := warm.runner(sim)
	tree, stats, err := r.draw(src)
	warm.release(r)
	return tree, stats, err
}

// draw runs one draw's phase loop on the runner's simulator; one sampler
// state serves every phase and Las Vegas segment of it.
func (r *phaseRunner) draw(src *prng.Source) (*spanning.Tree, *Stats, error) {
	n, sim, stats := r.n, r.sim, r.stats
	visited := &r.visited
	visited.reset()
	// Machine 1 (index 0) hosts the start vertex (Algorithm 1 step 1).
	start := 0
	visited.mark(start)
	visitedCount := 1
	r.treeEdges = r.treeEdges[:0]

	for phase := 0; visitedCount < n; phase++ {
		if phase >= maxPhases(n) {
			return nil, nil, fmt.Errorf("core: exceeded %d phases with %d of %d vertices visited", maxPhases(n), visitedCount, n)
		}
		// S = unvisited vertices plus the walk's current endpoint (§2.2).
		members := append(r.members[:0], start)
		for v := 0; v < n; v++ {
			if !visited.has(v) {
				members = append(members, v)
			}
		}
		r.members = members
		sub, err := schur.NewSubset(n, members)
		if err != nil {
			return nil, nil, err
		}
		phaseSpan := sim.TraceSpan("core/phase")
		phaseSpan.SetInt("phase", int64(phase))
		src.SplitInto(&r.phaseSrc, uint64(1000+phase))
		newGlobal, last, err := r.runPhase(sub, phase, start, &r.phaseSrc)
		phaseSpan.SetInt("new_vertices", int64(len(newGlobal)))
		phaseSpan.End()
		if err != nil {
			return nil, nil, err
		}
		for _, v := range newGlobal {
			if !visited.mark(v) {
				return nil, nil, fmt.Errorf("core: phase %d revisited vertex %d", phase, v)
			}
			visitedCount++
		}
		stats.Phases++
		stats.NewVertices = append(stats.NewVertices, len(newGlobal))
		if len(newGlobal) == 0 {
			return nil, nil, fmt.Errorf("core: phase %d made no progress", phase)
		}
		// Next phase continues from the final vertex of this phase's walk.
		start = last
	}

	stats.Rounds = sim.Rounds()
	stats.Supersteps = sim.Supersteps()
	stats.TotalWords = sim.TotalWords()
	tree, err := spanning.NewTree(n, r.treeEdges)
	if err != nil {
		return nil, nil, fmt.Errorf("core: assembling tree: %w", err)
	}
	return tree, stats, nil
}

// runPhase runs one phase over sub from the global vertex start, with its
// randomness split from src: the walk on Schur(G, S), then first-visit edge
// recovery. Under LasVegas (appendix §5.1) the walk is extended segment by
// segment from its endpoint until it has seen rho distinct vertices, so
// coverage failures cannot occur. It appends the sampled edges to the
// draw's tree edges and returns the newly visited global vertices in
// first-visit order (the runner's buffer, valid until the next phase) and
// the walk's final global vertex.
func (r *phaseRunner) runPhase(sub *schur.Subset, phase, start int, src *prng.Source) ([]int, int, error) {
	r.beginPhase(sub, phase)
	defer r.endPhase()
	from, err := sub.LocalIndex(start)
	if err != nil {
		return nil, 0, fmt.Errorf("core: phase %d start vertex: %w", phase, err)
	}
	var walk []int
	for segment := 0; ; segment++ {
		src.SplitInto(&r.segSrc, uint64(segment))
		if err := r.beginSegment(from, &r.segSrc); err != nil {
			return nil, 0, fmt.Errorf("core: phase %d: %w", phase, err)
		}
		segWalk, err := r.run()
		if err != nil {
			return nil, 0, fmt.Errorf("core: phase %d: %w", phase, err)
		}
		if segment == 0 {
			walk = segWalk
		} else {
			// The segment starts at the previous endpoint; drop the
			// duplicated join vertex.
			walk = append(walk, segWalk[1:]...)
			r.stats.Extensions++
		}
		if !r.cfg.LasVegas {
			break
		}
		r.markWalked(segWalk)
		if r.walkedN >= r.rho {
			break
		}
		if segment+1 >= maxExtensions {
			return nil, 0, fmt.Errorf("core: phase %d needed more than %d Las Vegas extensions", phase, maxExtensions)
		}
		from = walk[len(walk)-1]
	}
	r.stats.WalkSteps += len(walk) - 1

	newGlobal, err := r.firstVisitEdges(walk)
	if err != nil {
		return nil, 0, fmt.Errorf("core: phase %d first-visit edges: %w", phase, err)
	}
	return newGlobal, r.hostOf(walk[len(walk)-1]), nil
}

// firstVisitEdges runs the Algorithm 4 protocol for one phase walk: for
// every distinct vertex v (other than the phase start) of the walk on
// Schur(G, S), sample the G-edge by which the underlying G-walk first
// entered v. It appends the sampled edges to the draw's tree edges and
// returns the newly visited global vertices in first-visit order.
func (r *phaseRunner) firstVisitEdges(walkLocal []int) ([]int, error) {
	seen := &r.seen
	seen.reset()
	seen.mark(walkLocal[0])
	visits := r.visits[:0]
	for i := 1; i < len(walkLocal); i++ {
		lv := walkLocal[i]
		if !seen.mark(lv) {
			continue
		}
		v := r.hostOf(lv)
		visits = append(visits, fvVisit{prev: r.hostOf(walkLocal[i-1]), v: v})
		r.fvEdge[v] = -1
	}
	r.visits = visits
	if len(visits) == 0 {
		return nil, nil
	}
	if err := r.buildShortcutRows(); err != nil {
		return nil, err
	}
	r.readyFirstVisits()
	p := r.proto
	if err := clique.Run(r.sim, &p.notify); err != nil {
		return nil, err
	}
	if err := clique.Run(r.sim, &p.request); err != nil {
		return nil, err
	}
	if err := clique.Run(r.sim, &p.reply); err != nil {
		return nil, err
	}
	if err := clique.Run(r.sim, &p.sample); err != nil {
		return nil, err
	}
	// The leader absorbed the edges as they arrived.
	if err := clique.Local(r.sim, "core/fve/absorb", nil); err != nil {
		return nil, err
	}

	order := r.newVerts[:0]
	for _, vis := range visits {
		u := r.fvEdge[vis.v]
		if u < 0 {
			return nil, fmt.Errorf("core: no entry edge reported for vertex %d", vis.v)
		}
		r.treeEdges = append(r.treeEdges, graph.Edge{U: min(u, vis.v), V: max(u, vis.v), Weight: 1})
		order = append(order, vis.v)
	}
	r.newVerts = order
	return order, nil
}

// fvVisit is one first visit of the phase walk: the visited vertex and its
// Schur-walk predecessor, in global ids.
type fvVisit struct{ prev, v int }
