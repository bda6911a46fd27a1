package spanning

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// This file implements the weighted-tree audit for the paper's footnote 1:
// with positive integer edge weights, "the probability of a spanning tree
// is proportional to the product of its edge weights", and the random walk
// picks edges proportional to weight. The walk machinery in this repository
// is weight-aware throughout (transition matrices, Schur complements,
// first-visit Bayes sampling), so the same samplers should realize the
// weighted distribution; AuditWeighted checks exactly that.

// TreeWeight returns the product of g's weights over the tree's edges. It
// returns an error if some tree edge is missing from g.
func TreeWeight(g *graph.Graph, t *Tree) (float64, error) {
	w := 1.0
	for _, e := range t.edges {
		ew := g.Weight(e.U, e.V)
		if ew <= 0 {
			return 0, fmt.Errorf("spanning: tree edge {%d,%d} not in graph", e.U, e.V)
		}
		w *= ew
	}
	return w, nil
}

// AuditWeighted draws samples trees and compares the empirical distribution
// against the weight-proportional target P(T) ∝ Π_{e∈T} w(e), computed by
// exact enumeration (so the graph must have at most enumLimit trees). The
// returned AuditResult's Noise is the expected TV of a perfect sampler of
// the weighted target at this sample size.
func AuditWeighted(g *graph.Graph, samples, enumLimit int, sample func() (*Tree, error)) (AuditResult, error) {
	if samples < 1 {
		return AuditResult{}, fmt.Errorf("spanning: audit needs at least 1 sample")
	}
	trees, err := Enumerate(g, enumLimit)
	if err != nil {
		return AuditResult{}, err
	}
	// Every float sum below runs over the enumerated trees in their fixed
	// order, so identical audits agree to the last bit.
	index := make(map[string]int, len(trees))
	target := make([]float64, len(trees))
	var total float64
	for i, t := range trees {
		w, err := TreeWeight(g, t)
		if err != nil {
			return AuditResult{}, err
		}
		index[t.Encode()] = i
		target[i] = w
		total += w
	}
	var noise float64
	for i := range target {
		target[i] /= total
		p := target[i]
		noise += math.Sqrt(2 * p * (1 - p) / (math.Pi * float64(samples)))
	}
	noise /= 2

	counts := make([]int, len(trees))
	distinct := 0
	for i := 0; i < samples; i++ {
		tr, err := sample()
		if err != nil {
			return AuditResult{}, fmt.Errorf("spanning: sampler failed at draw %d: %w", i, err)
		}
		key := tr.Encode()
		j, ok := index[key]
		if !ok {
			return AuditResult{}, fmt.Errorf("spanning: draw %d is not a spanning tree of the graph: %s", i, key)
		}
		if counts[j] == 0 {
			distinct++
		}
		counts[j]++
	}
	var tv float64
	for i, p := range target {
		tv += math.Abs(float64(counts[i])/float64(samples) - p)
	}
	return AuditResult{
		Samples:      samples,
		TreeCount:    int64(len(trees)),
		DistinctSeen: distinct,
		TV:           tv / 2,
		Noise:        noise,
	}, nil
}
