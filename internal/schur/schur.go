package schur

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/matrix"
)

// Transition computes the transition matrix S of the random walk on
// Schur(G, S) per Definition 2 of the paper: S[u,v] is the probability that
// v is the first vertex of S \ {u} that a random walk on G started at u
// visits. Rows and columns are indexed by the subset's local ordering;
// diagonal entries are zero (Corollary 3's M_u normalization removes
// self-returns).
//
// The computation is the exact absorbing-chain block solve. Write P in
// blocks over (S̄, S): T = P[S̄,S̄], B = P[S̄,S]. Then F = (I-T)^{-1} B gives
// first-hit probabilities from outside S, the with-returns matrix is
// S0[u,v] = P[u,v] + sum_w P[u,w] F[w,v], and S = rownormalize(S0 with the
// diagonal removed). Every entry of P is read from the graph's adjacency;
// no n x n P is built.
//
// The result is drawn from the scratch pool: a caller done with it may
// Release it.
func Transition(g *graph.Graph, sub *Subset) (*matrix.Matrix, error) {
	if err := checkGraph(g, sub); err != nil {
		return nil, err
	}
	k := sub.Size()
	if k == 1 {
		return nil, fmt.Errorf("schur: transition matrix of a single-vertex subset is empty")
	}
	comp := sub.complement

	// F[w][v]: first-hit probability from w in S̄ to v in S, solved in place
	// over B. All right-hand sides go through one batched substitution over
	// the shared factorization, byte-identical to solving column by column.
	var f *matrix.Matrix
	if len(comp) > 0 {
		lu, err := factorAbsorbing(g, sub, false)
		if err != nil {
			return nil, err
		}
		f = matrix.Scratch(len(comp), k)
		defer f.Release()
		for wi, w := range comp {
			g.VisitTransitions(w, func(v int, pwv float64) {
				if j := sub.localOf[v]; j >= 0 {
					f.Set(wi, j, pwv)
				}
			})
		}
		err = lu.SolveBatchInto(f, f)
		lu.Release()
		if err != nil {
			return nil, err
		}
	}

	// S0[u,v]: the probability that the first vertex of S visited at time
	// >= 1 by a walk from u in S is v (v = u allowed). The P[u,w] F[w,v]
	// terms are added in ascending w, whatever order the adjacency lists
	// u's neighbours in, so each sum rounds the same way on every graph. The
	// term buffer starts on the stack, large enough for a sparse graph.
	type term struct {
		wi  int
		puw float64
	}
	terms := make([]term, 0, 16)
	s0 := matrix.Scratch(k, k)
	for i, u := range sub.vertices {
		row := s0.Row(i)
		terms = terms[:0]
		g.VisitTransitions(u, func(v int, puv float64) {
			if j := sub.localOf[v]; j >= 0 {
				row[j] = puv
			} else if puv != 0 {
				terms = append(terms, term{sub.coLocalOf[v], puv})
			}
		})
		slices.SortFunc(terms, func(a, b term) int { return cmp.Compare(a.wi, b.wi) })
		for _, t := range terms {
			fr := f.Row(t.wi)
			for j := range row {
				row[j] += t.puw * fr[j]
			}
		}
	}

	// Remove the self-returns and renormalize each row in place.
	for i := 0; i < k; i++ {
		row := s0.Row(i)
		den := 1 - row[i]
		if den <= 1e-13 {
			s0.Release()
			return nil, fmt.Errorf("schur: vertex %d returns to itself with probability ~1; subset unreachable from it", sub.vertices[i])
		}
		row[i] = 0
		for j := range row {
			if j != i {
				row[j] /= den
			}
		}
	}
	return s0, nil
}

// TransitionWorkers is Transition; the worker count is ignored. It stays
// only because the frozen benchmark harness (bench/trace.go) still calls it,
// and goes with the benchmark's next revision.
func TransitionWorkers(g *graph.Graph, sub *Subset, _ int) (*matrix.Matrix, error) {
	return Transition(g, sub)
}

// checkGraph refuses a subset of another universe and a disconnected graph,
// on which the absorbing chain need not be absorbed.
func checkGraph(g *graph.Graph, sub *Subset) error {
	if sub.N() != g.N() {
		return fmt.Errorf("schur: subset universe %d does not match graph size %d", sub.N(), g.N())
	}
	if !g.IsConnected() {
		return fmt.Errorf("schur: graph must be connected")
	}
	return nil
}

// factorAbsorbing builds the absorbing-chain system I - T, with
// T = P[S̄,S̄], or its transpose I - T^T, in one scratch-pooled matrix and
// factors it in place. The entries of P come from graph.VisitTransitions:
// the system holds -0 where P has a zero and -P on an edge, and then 1 is
// added to the diagonal. The caller releases the returned LU; S̄ must not be
// empty.
func factorAbsorbing(g *graph.Graph, sub *Subset, transpose bool) (*matrix.LU, error) {
	comp := sub.complement
	c := len(comp)
	system := matrix.Scratch(c, c)
	negZero := system.Row(0)
	for j := range negZero {
		negZero[j] = math.Copysign(0, -1)
	}
	for i := 1; i < c; i++ {
		copy(system.Row(i), negZero)
	}
	for i, u := range comp {
		g.VisitTransitions(u, func(v int, puv float64) {
			if j := sub.coLocalOf[v]; j >= 0 {
				if transpose {
					system.Set(j, i, -puv)
				} else {
					system.Set(i, j, -puv)
				}
			}
		})
	}
	for i := 0; i < c; i++ {
		system.Add(i, i, 1)
	}
	lu, err := matrix.Factor(system)
	if err != nil {
		return nil, fmt.Errorf("schur: absorbing chain system singular (is S reachable from all of V\\S?): %w", err)
	}
	return lu, nil
}

// ShortcutTransition computes Q, the transition matrix of ShortCut(G, S)
// (Definition 3): Q[u, x] is the probability that x is the vertex visited
// immediately before the walk from u first visits S at a time >= 1. Rows
// range over all of V; the column support is {u} ∪ (V \ S) (only those can
// precede an S-entry). It is ShortcutRows over every start vertex.
//
// The result is drawn from the scratch pool: a caller done with it may
// Release it.
func ShortcutTransition(g *graph.Graph, sub *Subset) (*matrix.Matrix, error) {
	all := make([]int, g.N())
	for u := range all {
		all[u] = u
	}
	return ShortcutRows(g, sub, all)
}

// ShortcutRows computes the rows of Q = ShortCut(G, S) (see
// ShortcutTransition) for the start vertices in from: row i of the
// len(from) x n result is Q[from[i], *]. Each start vertex is one column of
// a single batched solve over the shared factorization, and a batched
// column is bit-identical to solving it alone, so every entry has the bits
// ShortcutTransition gives it, whichever other rows are requested and in
// whatever order.
//
// The result is drawn from the scratch pool: a caller done with it may
// Release it.
func ShortcutRows(g *graph.Graph, sub *Subset, from []int) (*matrix.Matrix, error) {
	if err := checkGraph(g, sub); err != nil {
		return nil, err
	}
	n := g.N()
	if len(from) == 0 {
		return nil, fmt.Errorf("schur: no shortcut rows requested")
	}
	for _, u := range from {
		if u < 0 || u >= n {
			return nil, fmt.Errorf("schur: shortcut row %d out of range [0,%d)", u, n)
		}
	}
	comp := sub.complement

	// absorb[x] = probability of stepping from x directly into S.
	absorb := make([]float64, n)
	for x := 0; x < n; x++ {
		var a float64
		g.VisitNeighbors(x, func(h graph.Half) {
			if sub.Contains(h.To) {
				a += h.Weight
			}
		})
		if d := g.Degree(x); d > 0 {
			absorb[x] = a / d
		}
	}

	q := matrix.Scratch(len(from), n)
	// Direct entry at time 1: the predecessor is u itself.
	for i, u := range from {
		q.Set(i, u, absorb[u])
	}
	if len(comp) == 0 {
		return q, nil
	}

	// G[u][w] = expected visits to w in S̄ before first S-entry
	//         = [P restricted to S̄-columns] * (I - T)^{-1}.
	// Then Q[u][x] += G[u][x] * absorb[x].
	// visits = (I - T^T)^{-1} applied per start row: solve transposed
	// systems so we can reuse one factorization: G = Pcomp * Inv, i.e.
	// G^T = Inv^T * Pcomp^T. The requested start vertices are the columns
	// of one batched solve over the shared factorization.
	lu, err := factorAbsorbing(g, sub, true)
	if err != nil {
		q.Release()
		return nil, err
	}
	defer lu.Release()
	// rhs column i is P[from[i], comp] — the transposed system's right-hand
	// side for start vertex from[i]; after the solve
	// gt[wi][i] = G[from[i]][comp[wi]].
	gt := matrix.Scratch(len(comp), len(from))
	defer gt.Release()
	for i, u := range from {
		g.VisitTransitions(u, func(v int, puv float64) {
			if wi := sub.coLocalOf[v]; wi >= 0 {
				gt.Set(wi, i, puv)
			}
		})
	}
	if err := lu.SolveBatchInto(gt, gt); err != nil {
		q.Release()
		return nil, err
	}
	for i := range from {
		for wi, w := range comp {
			if v := gt.At(wi, i); v != 0 {
				q.Add(i, w, v*absorb[w])
			}
		}
	}
	return q, nil
}

// ShortcutTransitionWorkers is ShortcutTransition; the worker count is
// ignored. It stays only because the frozen benchmark harness
// (bench/trace.go) still calls it, and goes with the benchmark's next
// revision.
func ShortcutTransitionWorkers(g *graph.Graph, sub *Subset, _ int) (*matrix.Matrix, error) {
	return ShortcutTransition(g, sub)
}
