package schur

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/matrix"
)

// This file holds the sequential references the tests compare the shipped
// solvers against. The sampler never calls them.

// ComplementGraph builds the weighted graph H = Schur(G, S) of Definition 1
// by eliminating V \ S from the Laplacian: L(H) = L_SS - L_SC L_CC^{-1} L_CS,
// with L_CC^{-1} L_CS taken in one batched solve from a single LU of L_CC.
// Vertices of H are indexed by the subset's local ordering. Weights below
// tol are dropped as numerically zero.
func ComplementGraph(g *graph.Graph, sub *Subset) (*graph.Graph, error) {
	if sub.N() != g.N() {
		return nil, fmt.Errorf("schur: subset universe %d does not match graph size %d", sub.N(), g.N())
	}
	k := sub.Size()
	if k < 2 {
		return nil, fmt.Errorf("schur: complement graph needs |S| >= 2, got %d", k)
	}
	l := g.Laplacian()
	sv, comp := sub.vertices, sub.complement
	schurL, err := l.Submatrix(sv, sv)
	if err != nil {
		return nil, err
	}
	if len(comp) > 0 {
		lsc, err := l.Submatrix(sv, comp)
		if err != nil {
			return nil, err
		}
		lcs, err := l.Submatrix(comp, sv)
		if err != nil {
			return nil, err
		}
		lcc, err := l.Submatrix(comp, comp)
		if err != nil {
			return nil, err
		}
		f, err := matrix.Factor(lcc)
		if err != nil {
			return nil, fmt.Errorf("schur: L[V\\S, V\\S] singular: %w", err)
		}
		x := matrix.MustNew(len(comp), k)
		if err := f.SolveBatchInto(x, lcs); err != nil {
			return nil, err
		}
		corr, err := lsc.Mul(x)
		if err != nil {
			return nil, err
		}
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				schurL.Add(i, j, -corr.At(i, j))
			}
		}
	}

	const tol = 1e-12
	h := graph.MustNew(k)
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			w := -schurL.At(i, j)
			if w < -tol {
				return nil, fmt.Errorf("schur: complement produced negative weight %g on {%d,%d}", w, i, j)
			}
			if w > tol {
				if err := h.AddEdge(i, j, w); err != nil {
					return nil, err
				}
			}
		}
	}
	return h, nil
}

// IterativeShortcutTransition computes Q = ShortCut(G, S)'s transition
// matrix by the paper's own route (Corollary 2): build the augmented
// absorbing chain R on two copies of V and square it. States are L ∪ R
// where L holds walking copies u' and R absorbing copies u”:
//
//	R[u'', u''] = 1
//	R[u', v'] = P[u,v]           if v ∉ S
//	R[u', u''] = Σ_{v∈S} P[u,v]
//
// Then Q[u,v] = lim_k R^k[u', v”]; we return R^(2^squarings)[u', v”]. The
// error is geometric in the chain's escape probability.
func IterativeShortcutTransition(g *graph.Graph, sub *Subset, squarings int) (*matrix.Matrix, error) {
	if sub.N() != g.N() {
		return nil, fmt.Errorf("schur: subset universe %d does not match graph size %d", sub.N(), g.N())
	}
	if squarings < 0 {
		return nil, fmt.Errorf("schur: negative squaring count %d", squarings)
	}
	p, err := g.TransitionMatrix()
	if err != nil {
		return nil, err
	}
	n := g.N()
	r := matrix.MustNew(2*n, 2*n)
	for u := 0; u < n; u++ {
		r.Set(n+u, n+u, 1)
		var absorb float64
		for v := 0; v < n; v++ {
			pv := p.At(u, v)
			if pv == 0 {
				continue
			}
			if sub.Contains(v) {
				absorb += pv
			} else {
				r.Set(u, v, pv)
			}
		}
		r.Set(u, n+u, absorb)
	}
	for i := 0; i < squarings; i++ {
		if r, err = r.Mul(r); err != nil {
			return nil, err
		}
	}
	q := matrix.MustNew(n, n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			q.Set(u, v, r.At(u, n+v))
		}
	}
	return q, nil
}

// IterativeTransition computes the Schur complement walk matrix S via
// Corollary 3: S[u,v] ∝ (Q R')[u,v] for u ≠ v in S, where R' routes an
// S-entering step from x to a specific S-neighbor:
//
//	R'[x, v] = w(x,v) / degS(x)  if {x,v} ∈ E and v ∈ S
//	R'[x, x] = 1                 if degS(x) = 0
//
// and each row u is normalized by M_u = 1 / (1 - (QR')[u,u]), removing
// self-returns.
func IterativeTransition(g *graph.Graph, sub *Subset, squarings int) (*matrix.Matrix, error) {
	q, err := IterativeShortcutTransition(g, sub, squarings)
	if err != nil {
		return nil, err
	}
	n := g.N()
	rp := matrix.MustNew(n, n)
	for x := 0; x < n; x++ {
		degS := weightToSubset(g, sub, x)
		if degS <= 0 {
			rp.Set(x, x, 1)
			continue
		}
		g.VisitNeighbors(x, func(h graph.Half) {
			if sub.Contains(h.To) {
				rp.Set(x, h.To, h.Weight/degS)
			}
		})
	}
	qr, err := q.Mul(rp)
	if err != nil {
		return nil, err
	}
	k := sub.Size()
	if k < 2 {
		return nil, fmt.Errorf("schur: transition matrix of a single-vertex subset is empty")
	}
	out := matrix.MustNew(k, k)
	for i, u := range sub.vertices {
		den := 1 - qr.At(u, u)
		if den <= 1e-13 {
			return nil, fmt.Errorf("schur: iterative normalization degenerate at vertex %d", u)
		}
		for j, v := range sub.vertices {
			if i == j {
				continue
			}
			out.Set(i, j, qr.At(u, v)/den)
		}
	}
	return out, nil
}

// FirstVisitEdgeDistribution returns Algorithm 4's conditional distribution
// (§2.2, Bayes' rule) over the G-neighbors x of v by which a walk on
// Schur(G, S) that moved prev -> v first entered v: x is weighted by
// Q[prev, x] · w(x,v) / degS(x), normalized.
func FirstVisitEdgeDistribution(g *graph.Graph, sub *Subset, q *matrix.Matrix, prev, v int) (map[int]float64, error) {
	if !sub.Contains(v) {
		return nil, fmt.Errorf("schur: first-visit target %d is not in S", v)
	}
	out := make(map[int]float64)
	var total float64
	g.VisitNeighbors(v, func(h graph.Half) {
		// x is adjacent to v ∈ S, so degS(x) ≥ w(x,v) > 0.
		w := q.At(prev, h.To) * h.Weight / weightToSubset(g, sub, h.To)
		out[h.To] = w
		total += w
	})
	if total <= 0 {
		return nil, fmt.Errorf("schur: zero total mass for first-visit edges into %d", v)
	}
	for x := range out {
		out[x] /= total
	}
	return out, nil
}

// weightToSubset returns degS(x): the total weight from x into S.
func weightToSubset(g *graph.Graph, sub *Subset, x int) float64 {
	var s float64
	g.VisitNeighbors(x, func(h graph.Half) {
		if sub.Contains(h.To) {
			s += h.Weight
		}
	})
	return s
}
