package graph

import (
	"fmt"
	"math/big"

	"repro/internal/matrix"
)

// Laplacian returns the graph Laplacian L with L[i][i] = weighted degree and
// L[i][j] = -w({i,j}) for edges (§1.7 of the paper).
func (g *Graph) Laplacian() *matrix.Matrix {
	l := matrix.MustNew(g.n, g.n)
	for u := 0; u < g.n; u++ {
		l.Set(u, u, g.degree[u])
		for _, h := range g.adj[u] {
			l.Set(u, h.To, -h.Weight)
		}
	}
	return l
}

// TransitionMatrix returns the random-walk transition matrix P with
// P[u][v] = w({u,v}) / degree(u): from a vertex the walk picks an incident
// edge proportional to its weight (§1.1, footnote 1 for the weighted case).
// It returns an error if some vertex is isolated, since the walk is then
// undefined there.
func (g *Graph) TransitionMatrix() (*matrix.Matrix, error) {
	p := matrix.MustNew(g.n, g.n)
	for u := 0; u < g.n; u++ {
		if g.degree[u] <= 0 {
			return nil, fmt.Errorf("graph: vertex %d is isolated; random walk undefined", u)
		}
		g.VisitTransitions(u, func(v int, puv float64) { p.Set(u, v, puv) })
	}
	return p, nil
}

// VisitTransitions calls fn(v, P[u][v]) for each neighbor v of u, with the
// bits TransitionMatrix stores there: w({u,v})·(1/degree(u)). It is the row
// of P without the n x n matrix, for callers that read only a few entries.
// u must not be isolated.
func (g *Graph) VisitTransitions(u int, fn func(v int, puv float64)) {
	inv := 1 / g.degree[u]
	for _, h := range g.adj[u] {
		fn(h.To, h.Weight*inv)
	}
}

// SpanningTreeCount returns the exact number of spanning trees via the
// Matrix-Tree theorem: the determinant of the Laplacian with row and column
// 0 deleted, computed exactly over big integers. It requires all edge
// weights to be integers (unit weights in the paper's input case); it
// returns an error otherwise or if n < 1.
//
// This is the ground-truth oracle for every uniformity audit in the test
// suite and in experiment E2.
func (g *Graph) SpanningTreeCount() (*big.Int, error) {
	if g.n == 1 {
		return big.NewInt(1), nil
	}
	minor := make([][]int64, g.n-1)
	for i := range minor {
		minor[i] = make([]int64, g.n-1)
	}
	for u := 1; u < g.n; u++ {
		var deg int64
		for _, h := range g.adj[u] {
			w := int64(h.Weight)
			if float64(w) != h.Weight {
				return nil, fmt.Errorf("graph: SpanningTreeCount needs integer weights, edge {%d,%d} has %g", u, h.To, h.Weight)
			}
			deg += w
			if h.To != 0 {
				minor[u-1][h.To-1] = -w
			}
		}
		minor[u-1][u-1] = deg
	}
	return matrix.BigDet(minor)
}
