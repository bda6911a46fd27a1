package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/mm"
	"repro/internal/obs"
	"repro/internal/prng"
	"repro/internal/schur"
	"repro/internal/spanning"
)

// Prepared holds the per-(graph, config) state that is identical across
// Sample runs and therefore wasteful to rebuild per call: the validated
// configuration and the phase-0 dyadic power table — the numeric bulk of a
// run, since phase 0 walks on G itself and squares its full n×n transition
// matrix, while later phases work on shrinking Schur complements. Walking on
// G, phase 0 needs no shortcut matrix (§2.2: "short-cutting applies only
// after the first phase").
//
// A Prepared is immutable after Prepare returns and safe for concurrent use
// by any number of Sample calls; each call still simulates its own clique, so
// the reported Stats are per-run just like the cold path's. It pools the
// sampler states its draws run on, one per concurrent draw, so a warm draw
// reuses the n² pair tables and every other scratch buffer of an earlier
// one; what a draw computes never depends on which state it was given.
//
// Under the default Fast backend the cached table is bit-identical to the
// one the cold path computes in-simulation (both square via matrix.Mul) and
// the replayed charges match Fast.Mul's exactly, so Prepared.Sample and
// Sample agree tree-for-tree and round-for-round. The message-dataflow
// backends (naive, semiring3d) route real words and may accumulate in a
// different order, so for them Prepared.Sample simply takes the cold path —
// same results and stats as Sample, no caching benefit.
type Prepared struct {
	g   *graph.Graph
	req Config // the Config passed to Prepare, before defaults
	cfg Config // req with defaults applied
	n   int

	pd0 *matrix.PowerDyadic // phase-0 dyadic power table

	runners sync.Pool // idle *phaseRunner for this graph and cfg
}

// runner takes a sampler state for one draw on sim from the pool, or
// builds one when none is idle.
func (p *Prepared) runner(sim *clique.Sim) *phaseRunner {
	r, _ := p.runners.Get().(*phaseRunner)
	if r == nil {
		return newPhaseRunner(sim, p.g, p.cfg, p, &Stats{})
	}
	r.sim, r.stats = sim, &Stats{}
	return r
}

// release returns a sampler state to the pool once its draw is over, with
// or without an error, letting go of the draw's simulator and Stats.
func (p *Prepared) release(r *phaseRunner) {
	r.sim, r.stats = nil, nil
	p.runners.Put(r)
}

// Prepare validates the graph and configuration once and precomputes the
// phase-0 state shared by every subsequent Sample call on the pair.
func Prepare(g *graph.Graph, cfg Config) (*Prepared, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	n := g.N()
	p := &Prepared{g: g, req: cfg, cfg: cfg, n: n}
	if n == 1 {
		// Single-vertex graphs short-circuit before config validation, like
		// Sample (the 1/n default epsilon is out of range at n = 1).
		return p, nil
	}
	cfg, err := cfg.withDefaults(n)
	if err != nil {
		return nil, err
	}
	if !g.IsConnected() {
		return nil, fmt.Errorf("core: graph must be connected")
	}
	p.cfg = cfg
	if _, fast := cfg.Backend.(mm.Fast); !fast {
		// Only the Fast backend can consume the phase-0 state (see Sample);
		// skip the O(n^3 log l) table build the warm path would never read.
		return p, nil
	}

	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	sub, err := schur.NewSubset(n, members)
	if err != nil {
		return nil, err
	}
	smat, err := schur.Transition(g, sub)
	if err != nil {
		return nil, fmt.Errorf("core: schur transition: %w", err)
	}
	maxExp := int(math.Log2(float64(cfg.WalkLength)) + 0.5)
	pd, err := matrix.NewPowerDyadic(smat, maxExp, cfg.TruncDelta)
	if err != nil {
		return nil, fmt.Errorf("core: dyadic power table: %w", err)
	}
	p.pd0 = pd
	return p, nil
}

// PrepareExact is Prepare with SampleExact's configuration overrides (the
// appendix's exactly uniform variant), so repeated exact samples also reuse
// the phase-0 precomputation.
func PrepareExact(g *graph.Graph, cfg Config) (*Prepared, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	return Prepare(g, exactConfig(g.N(), cfg))
}

// Exact returns the appendix's exact variant over the same graph, under the
// Config passed to Prepare — what PrepareExact(g, cfg) returns, down to the
// sampled bytes. The exact variant changes ρ, Las Vegas extension and
// placement, not the phase-0 table, so when the two configurations square
// the same table (the same walk length and truncation unit, which holds
// whenever TruncDelta is 0) the result shares this Prepared's table instead
// of building a second one. Otherwise, and when there is no table to share
// (n = 1, non-Fast backends), it is PrepareExact.
func (p *Prepared) Exact() (*Prepared, error) {
	if p.pd0 != nil {
		req := exactConfig(p.n, p.req)
		cfg, err := req.withDefaults(p.n)
		if err != nil {
			return nil, err
		}
		if cfg.WalkLength == p.cfg.WalkLength && cfg.TruncDelta == p.cfg.TruncDelta {
			return &Prepared{g: p.g, req: req, cfg: cfg, n: p.n, pd0: p.pd0}, nil
		}
	}
	return PrepareExact(p.g, p.req)
}

// SampleOpts adjusts one Prepared draw without touching the prepared state.
type SampleOpts struct {
	// Trace, when non-nil, receives observation spans for this draw: one per
	// phase and one per clique superstep (with charged rounds/words
	// attached). TraceTag labels the spans (the engine passes the sample
	// index). Tracing never changes the tree or Stats — observation does
	// not feed back into sampling.
	Trace    *obs.Trace
	TraceTag int64
}

// SampleWith is Sample with per-draw options.
func (p *Prepared) SampleWith(src *prng.Source, opts SampleOpts) (*spanning.Tree, *Stats, error) {
	return p.sample(src, opts.Trace, opts.TraceTag)
}

// Config returns the validated configuration (defaults applied).
func (p *Prepared) Config() Config { return p.cfg }

// Sample draws a spanning tree exactly like the package-level Sample, but
// reuses the cached phase-0 precomputation instead of rebuilding it. The
// skipped matrix squarings are still charged to the simulated clique (see
// mm.ReplayDyadicTable), so Stats remains identical to cold runs.
func (p *Prepared) Sample(src *prng.Source) (*spanning.Tree, *Stats, error) {
	return p.sample(src, nil, 0)
}

func (p *Prepared) sample(src *prng.Source, tr *obs.Trace, tag int64) (*spanning.Tree, *Stats, error) {
	if src == nil {
		return nil, nil, fmt.Errorf("core: nil randomness source")
	}
	if p.n == 1 {
		tree, err := spanning.NewTree(1, nil)
		return tree, &Stats{}, err
	}
	return sampleLoop(p.g, p.cfg, src, p, tr, tag)
}
