package engine

import (
	"context"
	"fmt"
	"math/big"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/prng"
	"repro/internal/spanning"
)

// Session is a handle to one registered, prepared graph — the unit every
// sampling request runs against. A Session pins its graph entry, so the
// cached precomputation stays valid (and in-flight work unaffected) even if
// the graph is concurrently deregistered from the engine. Sessions are
// cheap, stateless beyond the pin, and safe for concurrent use; open one per
// graph and share it freely.
type Session struct {
	eng *Engine
	ent *entry
}

// Open returns a Session on the graph registered under key.
func (e *Engine) Open(key string) (*Session, error) {
	ent, err := e.reg.get(key)
	if err != nil {
		return nil, err
	}
	return &Session{eng: e, ent: ent}, nil
}

// NewSession returns a standalone Session over g, backed by a private
// single-graph engine — what spantree.Prepare returns, where registering
// under a key would be ceremony. The session takes ownership of
// g: callers must not mutate it afterwards.
func NewSession(g *graph.Graph, opts Options) (*Session, error) {
	if g == nil {
		return nil, fmt.Errorf("engine: nil graph")
	}
	if !g.IsConnected() {
		return nil, fmt.Errorf("engine: graph must be connected")
	}
	e := New(opts)
	return &Session{eng: e, ent: &entry{key: "adhoc", g: g}}, nil
}

// Key returns the registry key this session was opened on ("adhoc" for
// standalone sessions).
func (s *Session) Key() string { return s.ent.key }

// Engine returns the engine backing this session (the private single-graph
// engine for standalone sessions) — the handle to pool-wide metrics from a
// session-first call site.
func (s *Session) Engine() *Engine { return s.eng }

// Graph returns the session's graph (shared and read-only).
func (s *Session) Graph() *graph.Graph { return s.ent.g }

// Info describes the session's graph.
func (s *Session) Info() GraphInfo {
	info := GraphInfo{Key: s.ent.key, Vertices: s.ent.g.N(), Edges: s.ent.g.M(), Digest: s.ent.digest()}
	if c := s.ent.count.Load(); c != nil {
		info.TreeCount = c.String()
	}
	return info
}

// TreeCount returns the exact number of spanning trees of the session's
// graph (Matrix-Tree theorem), computed and cached on first use.
func (s *Session) TreeCount() (*big.Int, error) { return s.ent.treeCount() }

// Sample draws one tree with the spec'd sampler, seeded by seed. Identical
// (graph, spec, seed) triples yield identical trees; the phase and exact
// samplers reuse the session's cached precomputation.
func (s *Session) Sample(ctx context.Context, spec SamplerSpec, seed uint64) (*spanning.Tree, *core.Stats, error) {
	spec, err := spec.normalizedFor(s.ent.g.N())
	if err != nil {
		return nil, nil, err
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
	}
	// A request trace rides in on ctx (spantreed puts it there); single
	// samples carry index 0. Observation only — the draw is byte-identical
	// traced or not.
	tree, st, err := s.eng.sampleOne(s.ent, spec, prng.New(seed), obs.FromContext(ctx), 0)
	if err != nil {
		return nil, nil, err
	}
	s.eng.samples.Add(1)
	return tree, st, nil
}

// BatchResult is one completed batch: trees and stats indexed by sample
// number (sample i used seed stream i regardless of which worker ran it),
// plus the folded summary.
type BatchResult struct {
	GraphKey string
	Sampler  Sampler
	Spec     SamplerSpec
	SeedBase uint64
	Trees    []*spanning.Tree
	Stats    []core.Stats
	Summary  Summary
	Elapsed  time.Duration
}

// Collect runs req as a stream and gathers every result into an
// index-ordered BatchResult — the collect-all form of Stream.
func (s *Session) Collect(ctx context.Context, req StreamRequest) (*BatchResult, error) {
	start := time.Now()
	st, err := s.Stream(ctx, req)
	if err != nil {
		return nil, err
	}
	trees := make([]*spanning.Tree, req.K)
	stats := make([]core.Stats, req.K)
	for r := range st.Results() {
		// Results carry absolute indices; slot them relative to the window so
		// a resumed (StartIndex > 0) collect stays densely packed.
		trees[r.Index-req.StartIndex] = r.Tree
		stats[r.Index-req.StartIndex] = r.Stats
	}
	if err := st.Err(); err != nil {
		return nil, err
	}
	spec, _ := req.Spec.normalized() // already validated by Stream
	s.eng.batches.Add(1)
	return &BatchResult{
		GraphKey: s.ent.key,
		Sampler:  spec.Name,
		Spec:     spec,
		SeedBase: req.SeedBase,
		Trees:    trees,
		Stats:    stats,
		Summary:  Summarize(trees, stats),
		Elapsed:  time.Since(start),
	}, nil
}
