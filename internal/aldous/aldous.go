package aldous

import (
	"fmt"
	"sort"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/spanning"
	"repro/internal/walk"
)

// DefaultMaxSteps returns the standard cover-walk step cap for AldousBroder
// on an n-vertex graph: 100·n³, well beyond the O(mn) cover-time bound, and
// never below 10⁶ so small graphs are not starved by the cube.
func DefaultMaxSteps(n int) int {
	maxSteps := 100 * n * n * n
	if maxSteps < 1_000_000 {
		maxSteps = 1_000_000
	}
	return maxSteps
}

// AldousBroder samples an exactly uniform spanning tree by walking until
// cover and keeping each vertex's first-visit edge. maxSteps bounds the
// walk (an error is returned if exceeded).
func AldousBroder(g *graph.Graph, start, maxSteps int, src *prng.Source) (*spanning.Tree, error) {
	traj, err := walk.CoverWalk(g, start, maxSteps, src)
	if err != nil {
		return nil, fmt.Errorf("aldous: %w", err)
	}
	edges, err := walk.FirstVisitEdges(traj, g.N())
	if err != nil {
		return nil, fmt.Errorf("aldous: %w", err)
	}
	return spanning.NewTree(g.N(), edges)
}

// Wilson samples an exactly uniform spanning tree by Wilson's algorithm:
// loop-erased random walks from each vertex into the growing tree.
func Wilson(g *graph.Graph, root int, src *prng.Source) (*spanning.Tree, error) {
	n := g.N()
	if root < 0 || root >= n {
		return nil, fmt.Errorf("aldous: root %d out of range [0,%d)", root, n)
	}
	if !g.IsConnected() {
		return nil, fmt.Errorf("aldous: graph must be connected")
	}
	inTree := make([]bool, n)
	next := make([]int, n)
	for i := range next {
		next[i] = -1
	}
	inTree[root] = true
	for v := 0; v < n; v++ {
		if inTree[v] {
			continue
		}
		// Random walk from v until the tree, recording successor pointers;
		// revisits overwrite earlier pointers, implementing loop erasure.
		u := v
		for !inTree[u] {
			step, err := walk.Step(g, u, src)
			if err != nil {
				return nil, fmt.Errorf("aldous: %w", err)
			}
			next[u] = step
			u = step
		}
		// Commit the loop-erased path.
		for u = v; !inTree[u]; u = next[u] {
			inTree[u] = true
		}
	}
	edges := make([]graph.Edge, 0, n-1)
	for v := 0; v < n; v++ {
		if v != root && next[v] != -1 && inTree[v] {
			edges = append(edges, graph.Edge{U: v, V: next[v], Weight: 1})
		}
	}
	return spanning.NewTree(n, edges)
}

// NaiveCongestedClique runs Aldous-Broder on the simulated clique advancing
// one walk step per superstep: the token-passing port in which the machine
// currently holding the walk samples a neighbor and forwards the token. It
// charges Θ(cover time) rounds — the cost the paper's phase algorithm is
// designed to beat. maxSteps bounds the walk. It returns the tree and the
// simulator for round inspection.
func NaiveCongestedClique(g *graph.Graph, start, maxSteps int, src *prng.Source) (*spanning.Tree, *clique.Sim, error) {
	n := g.N()
	if start < 0 || start >= n {
		return nil, nil, fmt.Errorf("aldous: start %d out of range [0,%d)", start, n)
	}
	if !g.IsConnected() {
		return nil, nil, fmt.Errorf("aldous: graph must be connected")
	}
	sim := clique.MustNew(n)

	// Machine-local state: firstVisit[v] is set when machine v first
	// receives the token.
	firstVisit := make([]int, n) // incoming first-visit neighbor, -1 until visited
	for i := range firstVisit {
		firstVisit[i] = -1
	}
	firstVisit[start] = start // start needs no entry edge
	visited := 1
	holder, next := start, start
	// One superstep: the holder machine samples a neighbor and sends it the
	// token (1 word: the predecessor's id).
	step := &clique.Step[int]{
		Name: "naive/step",
		Send: func(o *clique.Out[int]) error {
			o.From(holder)
			to, err := walk.Step(g, holder, src)
			if err != nil {
				return err
			}
			o.Send(to, 1, holder)
			return nil
		},
		Recv: func(to, prev int) {
			next = to
			if firstVisit[to] == -1 {
				firstVisit[to] = prev
				visited++
			}
		},
		Encode: func(dst []clique.Word, prev int) []clique.Word { return clique.AppendInts(dst, prev) },
		Decode: func(_ int, ws []clique.Word) int { return ws[0].Int() },
	}
	for visited < n {
		if sim.Rounds() > maxSteps {
			return nil, nil, fmt.Errorf("aldous: naive walk exceeded %d rounds with %d vertices unvisited", maxSteps, n-visited)
		}
		if err := clique.Run(sim, step); err != nil {
			return nil, nil, err
		}
		holder = next
	}
	edges := make([]graph.Edge, 0, n-1)
	for v := 0; v < n; v++ {
		if v == start {
			continue
		}
		edges = append(edges, graph.Edge{U: v, V: firstVisit[v], Weight: 1})
	}
	tree, err := spanning.NewTree(n, edges)
	if err != nil {
		return nil, nil, err
	}
	return tree, sim, nil
}

// RandomWeightMST implements the §1.4 strawman: draw i.i.d. uniform [0,1)
// weights on the edges and return the minimum spanning tree (Kruskal). The
// paper notes this distribution "is well known to differ from the uniform
// distribution" [39]; experiment E7 quantifies the bias.
func RandomWeightMST(g *graph.Graph, src *prng.Source) (*spanning.Tree, error) {
	if !g.IsConnected() {
		return nil, fmt.Errorf("aldous: graph must be connected")
	}
	type wedge struct {
		e graph.Edge
		w float64
	}
	edges := g.Edges()
	ws := make([]wedge, len(edges))
	for i, e := range edges {
		ws[i] = wedge{e: e, w: src.Float64()}
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].w < ws[j].w })
	n := g.N()
	uf := newUnionFind(n)
	out := make([]graph.Edge, 0, n-1)
	for _, we := range ws {
		if uf.union(we.e.U, we.e.V) {
			out = append(out, we.e)
			if len(out) == n-1 {
				break
			}
		}
	}
	return spanning.NewTree(n, out)
}

type unionFind struct{ parent []int }

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) bool {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return false
	}
	uf.parent[rb] = ra
	return true
}
