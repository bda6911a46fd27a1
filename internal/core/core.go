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
// cached phase-0 state of Prepare; nil recomputes everything in-simulation,
// the original cold path. A non-nil tr attaches observation spans (per phase
// and per superstep, tagged with tag); tracing never feeds back into the run.
func sampleLoop(g *graph.Graph, cfg Config, src *prng.Source, warm *Prepared, tr *obs.Trace, tag int64) (*spanning.Tree, *Stats, error) {
	n := g.N()
	sim := newSim(n)
	sim.SetTrace(tr, tag)
	stats := &Stats{}
	// One sampler state serves every phase and Las Vegas segment of this
	// draw; see phaseRunner.
	r := newPhaseRunner(sim, g, cfg, warm, stats)

	visited := make([]bool, n)
	// Machine 1 (index 0) hosts the start vertex (Algorithm 1 step 1).
	start := 0
	visited[start] = true
	visitedCount := 1
	firstVisitEdges := make([]graph.Edge, 0, n-1)
	members := make([]int, 0, n)

	for phase := 0; visitedCount < n; phase++ {
		if phase >= maxPhases(n) {
			return nil, nil, fmt.Errorf("core: exceeded %d phases with %d of %d vertices visited", maxPhases(n), visitedCount, n)
		}
		// S = unvisited vertices plus the walk's current endpoint (§2.2).
		members = append(members[:0], start)
		for v := 0; v < n; v++ {
			if !visited[v] {
				members = append(members, v)
			}
		}
		sub, err := schur.NewSubset(n, members)
		if err != nil {
			return nil, nil, err
		}
		phaseSpan := sim.TraceSpan("core/phase")
		phaseSpan.SetInt("phase", int64(phase))
		edges, newGlobal, last, err := r.runPhase(sub, phase, start, src.Split(uint64(1000+phase)))
		phaseSpan.SetInt("new_vertices", int64(len(newGlobal)))
		phaseSpan.End()
		if err != nil {
			return nil, nil, err
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
		start = last
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

// runPhase runs one phase over sub from the global vertex start, with its
// randomness split from src: the walk on Schur(G, S), then first-visit edge
// recovery. Under LasVegas (appendix §5.1) the walk is extended segment by
// segment from its endpoint until it has seen rho distinct vertices, so
// coverage failures cannot occur. It returns the sampled edges, the newly
// visited global vertices in first-visit order, and the walk's final global
// vertex.
func (r *phaseRunner) runPhase(sub *schur.Subset, phase, start int, src *prng.Source) ([]graph.Edge, []int, int, error) {
	r.beginPhase(sub, phase)
	defer r.endPhase()
	from, err := sub.LocalIndex(start)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("core: phase %d start vertex: %w", phase, err)
	}
	var walk []int
	for segment := 0; ; segment++ {
		if err := r.beginSegment(from, src.Split(uint64(segment))); err != nil {
			return nil, nil, 0, fmt.Errorf("core: phase %d: %w", phase, err)
		}
		segWalk, err := r.run()
		if err != nil {
			return nil, nil, 0, fmt.Errorf("core: phase %d: %w", phase, err)
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
			return nil, nil, 0, fmt.Errorf("core: phase %d needed more than %d Las Vegas extensions", phase, maxExtensions)
		}
		from = walk[len(walk)-1]
	}
	r.stats.WalkSteps += len(walk) - 1

	edges, newGlobal, err := r.firstVisitEdges(walk)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("core: phase %d first-visit edges: %w", phase, err)
	}
	return edges, newGlobal, r.hostOf(walk[len(walk)-1]), nil
}

// firstVisitEdges runs the Algorithm 4 protocol for one phase walk: for
// every distinct vertex v (other than the phase start) of the walk on
// Schur(G, S), sample the G-edge by which the underlying G-walk first
// entered v. It returns the sampled edges and the newly visited global
// vertices in first-visit order.
func (r *phaseRunner) firstVisitEdges(walkLocal []int) ([]graph.Edge, []int, error) {
	r.readyFirstVisits()
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
		return nil, nil, nil
	}
	if err := r.buildShortcutRows(); err != nil {
		return nil, nil, err
	}
	p := r.proto
	if err := clique.Run(r.sim, &p.notify); err != nil {
		return nil, nil, err
	}
	if err := clique.Run(r.sim, &p.request); err != nil {
		return nil, nil, err
	}
	if err := clique.Run(r.sim, &p.reply); err != nil {
		return nil, nil, err
	}
	if err := clique.Run(r.sim, &p.sample); err != nil {
		return nil, nil, err
	}
	// The leader absorbed the edges as they arrived.
	if err := clique.Local(r.sim, "core/fve/absorb", nil); err != nil {
		return nil, nil, err
	}

	edges := make([]graph.Edge, 0, len(visits))
	order := make([]int, 0, len(visits))
	for _, vis := range visits {
		u := r.fvEdge[vis.v]
		if u < 0 {
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
