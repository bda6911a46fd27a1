package core

import (
	"fmt"
	"math"

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
// configuration, the phase-0 subset (every phase-0 walk runs on the full
// vertex set), its shortcut transition matrix, and the phase-0 dyadic power
// table — the numeric bulk of a run, since phase 0 squares a full n×n
// transition matrix while later phases work on shrinking Schur complements.
//
// A Prepared is immutable after Prepare returns and safe for concurrent use
// by any number of Sample calls; each call still simulates its own clique, so
// the reported Stats are per-run just like the cold path's.
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
	cfg Config
	n   int

	sub0 *schur.Subset       // full-vertex subset every phase 0 walks on
	q0   *matrix.Matrix      // phase-0 shortcut transitions
	pd0  *matrix.PowerDyadic // phase-0 dyadic power table
}

// Prepare validates the graph and configuration once and precomputes the
// phase-0 state shared by every subsequent Sample call on the pair.
func Prepare(g *graph.Graph, cfg Config) (*Prepared, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	n := g.N()
	p := &Prepared{g: g, cfg: cfg, n: n}
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
	q, err := schur.ShortcutTransition(g, sub)
	if err != nil {
		return nil, fmt.Errorf("core: shortcut transition: %w", err)
	}
	maxExp := int(math.Log2(float64(cfg.WalkLength)) + 0.5)
	pd, err := matrix.NewPowerDyadic(smat, maxExp, cfg.TruncDelta)
	if err != nil {
		return nil, fmt.Errorf("core: dyadic power table: %w", err)
	}
	p.sub0, p.q0, p.pd0 = sub, q, pd
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

// Graph returns the graph this state was prepared for.
func (p *Prepared) Graph() *graph.Graph { return p.g }

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
