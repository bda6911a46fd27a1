package schur

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/prng"
	"repro/internal/walk"
)

func TestSubsetBasics(t *testing.T) {
	sub, err := NewSubset(6, []int{4, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Size() != 3 || sub.N() != 6 {
		t.Errorf("size=%d n=%d", sub.Size(), sub.N())
	}
	if got := sub.Vertices(); got[0] != 1 || got[1] != 2 || got[2] != 4 {
		t.Errorf("vertices not sorted: %v", got)
	}
	if got := sub.complement; len(got) != 3 || got[0] != 0 || got[1] != 3 || got[2] != 5 {
		t.Errorf("complement wrong: %v", got)
	}
	if !sub.Contains(4) || sub.Contains(3) || sub.Contains(-1) {
		t.Error("Contains wrong")
	}
	li, err := sub.LocalIndex(4)
	if err != nil || li != 2 {
		t.Errorf("LocalIndex(4) = %d, %v", li, err)
	}
	if _, err := sub.LocalIndex(0); err == nil {
		t.Error("expected error for non-member")
	}
	v, err := sub.VertexAt(1)
	if err != nil || v != 2 {
		t.Errorf("VertexAt(1) = %d, %v", v, err)
	}
	if _, err := sub.VertexAt(9); err == nil {
		t.Error("expected error for bad index")
	}
}

func TestSubsetValidation(t *testing.T) {
	if _, err := NewSubset(0, []int{0}); err == nil {
		t.Error("expected error for empty universe")
	}
	if _, err := NewSubset(3, nil); err == nil {
		t.Error("expected error for empty subset")
	}
	if _, err := NewSubset(3, []int{0, 0}); err == nil {
		t.Error("expected error for duplicates")
	}
	if _, err := NewSubset(3, []int{5}); err == nil {
		t.Error("expected error for out-of-range vertex")
	}
}

// TestFigure2 reproduces the paper's Figure 2 exactly: star around C with
// S = {A, B, D}. Schur(G,S) has uniform 1/2 transitions; ShortCut(G,S)
// sends every vertex to C.
func TestFigure2(t *testing.T) {
	g := graph.Figure2Graph()
	sub, err := NewSubset(4, []int{0, 1, 3}) // A, B, D
	if err != nil {
		t.Fatal(err)
	}
	s, err := Transition(g, sub)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.5
			if i == j {
				want = 0
			}
			if math.Abs(s.At(i, j)-want) > 1e-12 {
				t.Errorf("Schur transition [%d][%d] = %g, want %g", i, j, s.At(i, j), want)
			}
		}
	}
	q, err := ShortcutTransition(g, sub)
	if err != nil {
		t.Fatal(err)
	}
	const c = 2
	for u := 0; u < 4; u++ {
		for x := 0; x < 4; x++ {
			want := 0.0
			if x == c {
				want = 1.0
			}
			if math.Abs(q.At(u, x)-want) > 1e-12 {
				t.Errorf("Q[%d][%d] = %g, want %g", u, x, q.At(u, x), want)
			}
		}
	}
	// The complement graph should be the triangle on {A,B,D} with equal
	// weights (uniform transitions).
	h, err := ComplementGraph(g, sub)
	if err != nil {
		t.Fatal(err)
	}
	if h.M() != 3 {
		t.Errorf("Schur complement has %d edges, want 3 (triangle)", h.M())
	}
	ht, err := h.TransitionMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if !ht.Equal(s, 1e-9) {
		t.Error("complement graph transitions disagree with Definition 2 matrix")
	}
}

// TestPathReduction checks the classic 3-vertex example: path a-c-b with
// S = {a, b} reduces to a single edge of weight 1/2 and deterministic
// transitions.
func TestPathReduction(t *testing.T) {
	g := graph.MustNew(3)
	if err := g.AddUnitEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddUnitEdge(2, 1); err != nil {
		t.Fatal(err)
	}
	sub, err := NewSubset(3, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	h, err := ComplementGraph(g, sub)
	if err != nil {
		t.Fatal(err)
	}
	if h.M() != 1 || math.Abs(h.Weight(0, 1)-0.5) > 1e-12 {
		t.Errorf("Schur of path: %d edges, weight %g; want 1 edge of weight 0.5", h.M(), h.Weight(0, 1))
	}
	s, err := Transition(g, sub)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.At(0, 1)-1) > 1e-12 || math.Abs(s.At(1, 0)-1) > 1e-12 {
		t.Errorf("transitions %g, %g; want 1, 1", s.At(0, 1), s.At(1, 0))
	}
}

func TestTransitionStochasticAndMatchesComplementGraph(t *testing.T) {
	src := prng.New(7)
	g, err := graph.ErdosRenyi(14, 0.4, src)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := NewSubset(14, []int{0, 2, 3, 7, 9, 13})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Transition(g, sub)
	if err != nil {
		t.Fatal(err)
	}
	if !s.IsStochastic(1e-9) {
		t.Error("Definition-2 transition matrix not stochastic")
	}
	for i := 0; i < sub.Size(); i++ {
		if s.At(i, i) != 0 {
			t.Errorf("self transition at %d should be 0, got %g", i, s.At(i, i))
		}
	}
	h, err := ComplementGraph(g, sub)
	if err != nil {
		t.Fatal(err)
	}
	ht, err := h.TransitionMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if !ht.Equal(s, 1e-8) {
		d, _ := ht.MaxAbsDiff(s)
		t.Errorf("Laplacian-eliminated graph transitions differ from absorbing-chain transitions (max %g)", d)
	}
}

// TestTransitionMatchesWatchedWalk is the semantic ground truth: simulate
// many random walks on G from a vertex of S and record the first vertex of
// S\{u} they visit; frequencies must match Transition's row.
func TestTransitionMatchesWatchedWalk(t *testing.T) {
	src := prng.New(11)
	g, err := graph.ErdosRenyi(10, 0.45, src)
	if err != nil {
		t.Fatal(err)
	}
	members := []int{1, 4, 6, 8}
	sub, err := NewSubset(10, members)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Transition(g, sub)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 60000
	start := 4
	li, err := sub.LocalIndex(start)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	wsrc := prng.New(13)
	for i := 0; i < trials; i++ {
		cur := start
		for {
			next, err := walk.Step(g, cur, wsrc)
			if err != nil {
				t.Fatal(err)
			}
			cur = next
			if sub.Contains(cur) && cur != start {
				counts[cur]++
				break
			}
		}
	}
	for _, v := range members {
		if v == start {
			continue
		}
		lj, err := sub.LocalIndex(v)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(counts[v]) / trials
		want := s.At(li, lj)
		if math.Abs(got-want) > 0.012 {
			t.Errorf("first S\\{u}-visit frequency of %d: %.4f vs exact %.4f", v, got, want)
		}
	}
}

func TestIterativeMatchesExact(t *testing.T) {
	src := prng.New(19)
	g, err := graph.ErdosRenyi(12, 0.4, src)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := NewSubset(12, []int{0, 3, 5, 6, 10})
	if err != nil {
		t.Fatal(err)
	}
	qExact, err := ShortcutTransition(g, sub)
	if err != nil {
		t.Fatal(err)
	}
	// 2^20 steps: far beyond the mixing scale of a 12-vertex chain.
	qIter, err := IterativeShortcutTransition(g, sub, 20)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := qExact.MaxAbsDiff(qIter); d > 1e-9 {
		t.Errorf("iterative Q differs from exact by %g", d)
	}
	sExact, err := Transition(g, sub)
	if err != nil {
		t.Fatal(err)
	}
	sIter, err := IterativeTransition(g, sub, 20)
	if err != nil {
		t.Fatal(err)
	}
	if d, _ := sExact.MaxAbsDiff(sIter); d > 1e-9 {
		t.Errorf("iterative S differs from exact by %g", d)
	}
}

func TestIterativeUnderApproximates(t *testing.T) {
	// Corollary 2 promises subtractive error: finite powering
	// under-approximates Q entrywise.
	g, err := graph.Lollipop(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := NewSubset(8, []int{0, 7})
	if err != nil {
		t.Fatal(err)
	}
	qExact, err := ShortcutTransition(g, sub)
	if err != nil {
		t.Fatal(err)
	}
	qIter, err := IterativeShortcutTransition(g, sub, 4) // only 16 steps
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			if qIter.At(u, v) > qExact.At(u, v)+1e-12 {
				t.Fatalf("iterative Q[%d][%d] = %g exceeds exact %g", u, v, qIter.At(u, v), qExact.At(u, v))
			}
		}
	}
}

func TestTransitionSEqualsVAllVertices(t *testing.T) {
	// S = V: no vertices eliminated, so Schur(G,V) = G.
	g, err := graph.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	all := []int{0, 1, 2, 3, 4, 5}
	sub, err := NewSubset(6, all)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Transition(g, sub)
	if err != nil {
		t.Fatal(err)
	}
	p, err := g.TransitionMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if !s.Equal(p, 1e-12) {
		t.Error("Schur(G, V) transition differs from G's own")
	}
}

func TestTransitionErrors(t *testing.T) {
	g, err := graph.Path(4)
	if err != nil {
		t.Fatal(err)
	}
	subWrongN, err := NewSubset(5, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Transition(g, subWrongN); err == nil {
		t.Error("expected universe mismatch error")
	}
	single, err := NewSubset(4, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Transition(g, single); err == nil {
		t.Error("expected error for singleton subset")
	}
	disc := graph.MustNew(4)
	if err := disc.AddUnitEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := disc.AddUnitEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	sub2, err := NewSubset(4, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Transition(disc, sub2); err == nil {
		t.Error("expected error for disconnected graph")
	}
}

func TestShortcutRowsSumToOne(t *testing.T) {
	src := prng.New(29)
	g, err := graph.ErdosRenyi(12, 0.4, src)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := NewSubset(12, []int{2, 5, 9})
	if err != nil {
		t.Fatal(err)
	}
	q, err := ShortcutTransition(g, sub)
	if err != nil {
		t.Fatal(err)
	}
	// Each row of Q is a distribution over possible predecessors.
	for u := 0; u < 12; u++ {
		var s float64
		for x := 0; x < 12; x++ {
			s += q.At(u, x)
		}
		if math.Abs(s-1) > 1e-9 {
			t.Errorf("row %d of Q sums to %g", u, s)
		}
	}
}

// TestFirstVisitEdgeMatchesSimulation validates Algorithm 4's Bayes formula
// against brute-force simulation: walk on G from u0 until the first visit to
// a vertex of S\{u0}; record (arrival vertex, incoming edge); the
// conditional edge distribution must match FirstVisitEdgeDistribution.
func TestFirstVisitEdgeMatchesSimulation(t *testing.T) {
	src := prng.New(31)
	g, err := graph.ErdosRenyi(9, 0.5, src)
	if err != nil {
		t.Fatal(err)
	}
	members := []int{0, 4, 7}
	sub, err := NewSubset(9, members)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ShortcutTransition(g, sub)
	if err != nil {
		t.Fatal(err)
	}
	u0 := 0
	const trials = 120000
	arrivals := make(map[int]int) // v -> count
	edges := make(map[[2]int]int) // (v, x) -> count
	wsrc := prng.New(37)
	for i := 0; i < trials; i++ {
		prevV, cur := u0, u0
		for {
			next, err := walk.Step(g, cur, wsrc)
			if err != nil {
				t.Fatal(err)
			}
			prevV, cur = cur, next
			if sub.Contains(cur) && cur != u0 {
				arrivals[cur]++
				edges[[2]int{cur, prevV}]++
				break
			}
		}
	}
	for _, v := range members {
		if v == u0 || arrivals[v] == 0 {
			continue
		}
		dist, err := FirstVisitEdgeDistribution(g, sub, q, u0, v)
		if err != nil {
			t.Fatal(err)
		}
		for x, want := range dist {
			got := float64(edges[[2]int{v, x}]) / float64(arrivals[v])
			if math.Abs(got-want) > 0.015 {
				t.Errorf("entry edge (%d->%d): simulated %.4f vs Bayes %.4f", x, v, got, want)
			}
		}
	}
}

func TestComplementGraphValidation(t *testing.T) {
	g, err := graph.Path(4)
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewSubset(4, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ComplementGraph(g, single); err == nil {
		t.Error("expected error for |S| < 2")
	}
	subWrongN, err := NewSubset(6, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ComplementGraph(g, subWrongN); err == nil {
		t.Error("expected universe mismatch error")
	}
}

func TestIterativeValidation(t *testing.T) {
	g, err := graph.Path(4)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := NewSubset(4, []int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := IterativeShortcutTransition(g, sub, -1); err == nil {
		t.Error("expected error for negative squarings")
	}
}

// TestShortcutRowsBitIdentical checks that every row ShortcutRows solves
// carries exactly the bits of the same row of ShortcutTransition, whichever
// rows are requested and in whatever order: the first-visit step solves only
// the rows its walk reads, and the sampled trees must not move. It covers
// every graph family with random subsets, |S| = 2, S = V, and the nested
// subsets a sampler's phases walk on.
func TestShortcutRowsBitIdentical(t *testing.T) {
	for _, name := range graph.FamilyNames() {
		for _, size := range []int{12, 48} {
			src := prng.New(uint64(41 + size))
			g, err := graph.FromFamily(name, size, src)
			if err != nil {
				t.Fatal(err)
			}
			n := g.N()
			if n > 48 {
				continue // the shaped families round some sizes up
			}
			perm := src.Perm(n)
			subsets := [][]int{perm[:2], perm}
			for i := 0; i < 3; i++ {
				subsets = append(subsets, src.Perm(n)[:1+src.Intn(n)])
			}
			subsets = append(subsets, phaseSubsets(t, g, src)...)
			for _, members := range subsets {
				sub, err := NewSubset(n, members)
				if err != nil {
					t.Fatal(err)
				}
				checkShortcutRows(t, name, g, sub, src)
			}
		}
	}
}

// checkShortcutRows compares ShortcutTransition against the reference
// build, then ShortcutRows against ShortcutTransition on one subset, over
// the rows in ascending order, shuffled, a random subset of them, and each
// singleton.
func checkShortcutRows(t *testing.T, name string, g *graph.Graph, sub *Subset, src *prng.Source) {
	t.Helper()
	n := g.N()
	full, err := ShortcutTransition(g, sub)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Release()
	ref := refShortcutTransition(t, g, sub)
	for u := 0; u < n; u++ {
		for x := 0; x < n; x++ {
			if got, want := full.At(u, x), ref.At(u, x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s n=%d |S|=%d: Q[%d,%d] = %v (%#x), reference build has %v (%#x)",
					name, n, sub.Size(), u, x, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	ascending := make([]int, n)
	for u := range ascending {
		ascending[u] = u
	}
	shuffled := src.Perm(n)
	froms := [][]int{ascending, shuffled, shuffled[:1+src.Intn(n)]}
	for u := 0; u < n; u++ {
		froms = append(froms, []int{u})
	}
	for _, from := range froms {
		rows, err := ShortcutRows(g, sub, from)
		if err != nil {
			t.Fatal(err)
		}
		if rows.Rows() != len(from) || rows.Cols() != n {
			t.Fatalf("%s n=%d: ShortcutRows over %d rows is %dx%d", name, n, len(from), rows.Rows(), rows.Cols())
		}
		for i, u := range from {
			for x := 0; x < n; x++ {
				if got, want := rows.At(i, x), full.At(u, x); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s n=%d |S|=%d rows %v: Q[%d,%d] = %v (%#x), ShortcutTransition has %v (%#x)",
						name, n, sub.Size(), from, u, x, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
		rows.Release()
	}
}

// refShortcutTransition is the all-rows shortcut build the samplers'
// trees were pinned with: the n x n transition matrix P, the transposed
// absorbing system gathered from it, and one batched solve over every start
// vertex. ShortcutTransition and ShortcutRows must reproduce its bits.
func refShortcutTransition(t *testing.T, g *graph.Graph, sub *Subset) *matrix.Matrix {
	t.Helper()
	n := g.N()
	p, err := g.TransitionMatrix()
	if err != nil {
		t.Fatal(err)
	}
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
	q := matrix.MustNew(n, n)
	for u := 0; u < n; u++ {
		q.Set(u, u, absorb[u])
	}
	comp := sub.complement
	if len(comp) == 0 {
		return q
	}
	c := len(comp)
	system := matrix.MustNew(c, c)
	for i := 0; i < c; i++ {
		row := system.Row(i)
		for j := range row {
			row[j] = -p.At(comp[j], comp[i])
		}
		row[i] += 1
	}
	lu, err := matrix.Factor(system)
	if err != nil {
		t.Fatal(err)
	}
	gt := matrix.MustNew(c, n)
	for wi, w := range comp {
		row := gt.Row(wi)
		for u := 0; u < n; u++ {
			row[u] = p.At(u, w)
		}
	}
	if err := lu.SolveBatchInto(gt, gt); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < n; u++ {
		for wi, w := range comp {
			if v := gt.At(wi, u); v != 0 {
				q.Add(u, w, v*absorb[w])
			}
		}
	}
	return q
}

// TestTransitionBitIdentical checks that Transition, which reads P from the
// graph's adjacency, carries exactly the bits of refTransition, the build
// from an n x n P the samplers' trees were pinned with. It covers every
// graph family with random subsets, |S| = 2, S = V and the subsets a
// sampler's phases walk on, each on the family graph and on a copy whose
// edges are inserted in shuffled order with random weights in [0.5, 3.5]:
// adjacency order then differs from vertex order, and only the ascending
// sum over S̄ keeps the bits.
func TestTransitionBitIdentical(t *testing.T) {
	for _, name := range graph.FamilyNames() {
		for _, size := range []int{12, 48} {
			src := prng.New(uint64(43 + size))
			g, err := graph.FromFamily(name, size, src)
			if err != nil {
				t.Fatal(err)
			}
			n := g.N()
			if n > 48 {
				continue // the shaped families round some sizes up
			}
			for shuffled, h := range []*graph.Graph{g, shuffledWeighted(t, g, src)} {
				perm := src.Perm(n)
				subsets := [][]int{perm[:2], perm}
				for i := 0; i < 3; i++ {
					subsets = append(subsets, src.Perm(n)[:2+src.Intn(n-1)])
				}
				for _, members := range phaseSubsets(t, h, src) {
					if len(members) > 1 {
						subsets = append(subsets, members)
					}
				}
				for _, members := range subsets {
					sub, err := NewSubset(n, members)
					if err != nil {
						t.Fatal(err)
					}
					got, err := Transition(h, sub)
					if err != nil {
						t.Fatal(err)
					}
					want := refTransition(t, h, sub)
					k := sub.Size()
					for i := 0; i < k; i++ {
						for j := 0; j < k; j++ {
							if a, b := got.At(i, j), want.At(i, j); math.Float64bits(a) != math.Float64bits(b) {
								t.Fatalf("%s n=%d shuffled=%d |S|=%d: S[%d,%d] = %v (%#x), reference build has %v (%#x)",
									name, n, shuffled, k, i, j, a, math.Float64bits(a), b, math.Float64bits(b))
							}
						}
					}
					got.Release()
				}
			}
		}
	}
}

// shuffledWeighted returns g's edges inserted in a random order, each with
// a random weight in [0.5, 3.5].
func shuffledWeighted(t *testing.T, g *graph.Graph, src *prng.Source) *graph.Graph {
	t.Helper()
	edges := g.Edges()
	h := graph.MustNew(g.N())
	for _, i := range src.Perm(len(edges)) {
		if err := h.AddEdge(edges[i].U, edges[i].V, 0.5+3*src.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// refTransition is the Schur transition build the samplers' trees were
// pinned with: the n x n transition matrix P, T = P[S̄,S̄] and B = P[S̄,S]
// gathered from it, F = (I - T)^{-1} B in one batched solve, the P[u,S̄] F
// terms added in ascending S̄ order, and each row renormalized into a second
// matrix. Transition must reproduce its bits.
func refTransition(t *testing.T, g *graph.Graph, sub *Subset) *matrix.Matrix {
	t.Helper()
	p, err := g.TransitionMatrix()
	if err != nil {
		t.Fatal(err)
	}
	k := sub.Size()
	comp, sv := sub.complement, sub.vertices
	var f *matrix.Matrix
	if len(comp) > 0 {
		b, err := p.Submatrix(comp, sv)
		if err != nil {
			t.Fatal(err)
		}
		system, err := p.Submatrix(comp, comp)
		if err != nil {
			t.Fatal(err)
		}
		for i := range comp {
			row := system.Row(i)
			for j := range row {
				row[j] = -row[j]
			}
			row[i] += 1
		}
		lu, err := matrix.Factor(system)
		if err != nil {
			t.Fatal(err)
		}
		f = matrix.MustNew(len(comp), k)
		if err := lu.SolveBatchInto(f, b); err != nil {
			t.Fatal(err)
		}
	}
	s0 := matrix.MustNew(k, k)
	for i, u := range sv {
		row := s0.Row(i)
		for j, v := range sv {
			row[j] = p.At(u, v)
		}
		for wi, w := range comp {
			puw := p.At(u, w)
			if puw == 0 {
				continue
			}
			fr := f.Row(wi)
			for j := range row {
				row[j] += puw * fr[j]
			}
		}
	}
	out := matrix.MustNew(k, k)
	for i := 0; i < k; i++ {
		den := 1 - s0.At(i, i)
		if den <= 1e-13 {
			t.Fatalf("reference build: vertex %d returns to itself with probability ~1", sv[i])
		}
		for j := 0; j < k; j++ {
			if i != j {
				out.Set(i, j, s0.At(i, j)/den)
			}
		}
	}
	return out
}

// phaseSubsets returns the subsets of a sampler's later phases: a random
// walk on g from vertex 0 is cut into phases of ⌈√n⌉ new vertices each, and
// phase j walks on its start vertex plus every vertex not yet visited.
func phaseSubsets(t testing.TB, g *graph.Graph, src *prng.Source) [][]int {
	t.Helper()
	n := g.N()
	rho := int(math.Ceil(math.Sqrt(float64(n))))
	visited := make([]bool, n)
	visited[0] = true
	count, cur := 1, 0
	var out [][]int
	for count < n {
		for fresh := 0; fresh < rho && count < n; {
			next, err := walk.Step(g, cur, src)
			if err != nil {
				t.Fatal(err)
			}
			cur = next
			if !visited[cur] {
				visited[cur] = true
				count++
				fresh++
			}
		}
		members := []int{cur}
		for v := 0; v < n; v++ {
			if !visited[v] {
				members = append(members, v)
			}
		}
		out = append(out, members)
	}
	return out
}

func TestShortcutRowsValidation(t *testing.T) {
	g, err := graph.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := NewSubset(6, []int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, from := range [][]int{nil, {6}, {-1}, {0, 7}} {
		if _, err := ShortcutRows(g, sub, from); err == nil {
			t.Errorf("ShortcutRows over rows %v: expected an error", from)
		}
	}
}

// BenchmarkShortcut times the shortcut build over the later-phase subsets of
// one sample on a 3-regular n = 96 graph: every row (ShortcutTransition)
// against the ⌈√n⌉ rows a phase's first visits read (ShortcutRows).
func BenchmarkShortcut(b *testing.B) {
	const n = 96
	g, err := graph.RandomRegular(n, 3, prng.New(11).Split(n))
	if err != nil {
		b.Fatal(err)
	}
	src := prng.New(1)
	var subs []*Subset
	var froms [][]int
	for _, members := range phaseSubsets(b, g, src) {
		sub, err := NewSubset(n, members)
		if err != nil {
			b.Fatal(err)
		}
		subs = append(subs, sub)
		from := append([]int(nil), sub.Vertices()...)
		for i := range from {
			j := i + src.Intn(len(from)-i)
			from[i], from[j] = from[j], from[i]
		}
		froms = append(froms, from[:min(len(from), 10)])
	}
	b.Run("transition", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, sub := range subs {
				q, err := ShortcutTransition(g, sub)
				if err != nil {
					b.Fatal(err)
				}
				q.Release()
			}
		}
	})
	b.Run("rows", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k, sub := range subs {
				q, err := ShortcutRows(g, sub, froms[k])
				if err != nil {
					b.Fatal(err)
				}
				q.Release()
			}
		}
	})
}

// BenchmarkTransition times the Schur transition build on a 3-regular
// n = 96 graph: over S = V, and over the later-phase subsets of one sample
// (a one-vertex subset, which has no transition matrix, is left out).
func BenchmarkTransition(b *testing.B) {
	const n = 96
	g, err := graph.RandomRegular(n, 3, prng.New(11).Split(n))
	if err != nil {
		b.Fatal(err)
	}
	all, err := NewSubset(n, prng.New(1).Perm(n))
	if err != nil {
		b.Fatal(err)
	}
	var phases []*Subset
	for _, members := range phaseSubsets(b, g, prng.New(1)) {
		if len(members) < 2 {
			continue
		}
		sub, err := NewSubset(n, members)
		if err != nil {
			b.Fatal(err)
		}
		phases = append(phases, sub)
	}
	for _, bc := range []struct {
		name string
		subs []*Subset
	}{{"all", []*Subset{all}}, {"phases", phases}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, sub := range bc.subs {
					s, err := Transition(g, sub)
					if err != nil {
						b.Fatal(err)
					}
					s.Release()
				}
			}
		})
	}
}

// BenchmarkFactorAbsorbing times the absorbing-chain LU alone, in both
// orientations (I - T for Transition, I - T^T for the shortcut rows), over
// the later-phase subsets of one sample on the 3-regular n = 96 graph
// (graph seed 11).
func BenchmarkFactorAbsorbing(b *testing.B) {
	const n = 96
	g, err := graph.RandomRegular(n, 3, prng.New(11).Split(n))
	if err != nil {
		b.Fatal(err)
	}
	var subs []*Subset
	for _, members := range phaseSubsets(b, g, prng.New(1)) {
		sub, err := NewSubset(n, members)
		if err != nil {
			b.Fatal(err)
		}
		subs = append(subs, sub)
	}
	for _, bc := range []struct {
		name      string
		transpose bool
	}{{"system", false}, {"transpose", true}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, sub := range subs {
					lu, err := factorAbsorbing(g, sub, bc.transpose)
					if err != nil {
						b.Fatal(err)
					}
					lu.Release()
				}
			}
		})
	}
}
