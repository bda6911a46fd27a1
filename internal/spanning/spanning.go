package spanning

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/stats"
)

// Tree is a spanning tree of an n-vertex graph, stored as a normalized
// (U < V, sorted) edge list. Construct with NewTree, which validates the
// tree property.
type Tree struct {
	n     int
	edges []graph.Edge
}

// NewTree builds a spanning tree on n vertices from the given edges. It
// returns an error unless the edges form exactly a spanning tree: n-1 edges,
// valid distinct endpoints, no duplicates, connected.
func NewTree(n int, edges []graph.Edge) (*Tree, error) {
	if n < 1 {
		return nil, fmt.Errorf("spanning: tree needs n >= 1, got %d", n)
	}
	if len(edges) != n-1 {
		return nil, fmt.Errorf("spanning: %d edges for %d vertices, want %d", len(edges), n, n-1)
	}
	norm := make([]graph.Edge, len(edges))
	uf := newUnionFind(n)
	for i, e := range edges {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		if u < 0 || v >= n || u == v {
			return nil, fmt.Errorf("spanning: invalid edge {%d,%d}", e.U, e.V)
		}
		if !uf.union(u, v) {
			return nil, fmt.Errorf("spanning: edge {%d,%d} creates a cycle", u, v)
		}
		norm[i] = graph.Edge{U: u, V: v, Weight: e.Weight}
	}
	sort.Slice(norm, func(i, j int) bool {
		if norm[i].U != norm[j].U {
			return norm[i].U < norm[j].U
		}
		return norm[i].V < norm[j].V
	})
	return &Tree{n: n, edges: norm}, nil
}

// N reports the number of vertices.
func (t *Tree) N() int { return t.n }

// Edges returns a copy of the normalized edge list.
func (t *Tree) Edges() []graph.Edge {
	out := make([]graph.Edge, len(t.edges))
	copy(out, t.edges)
	return out
}

// Encode returns a canonical string key for the tree (used as the outcome
// key in distribution audits).
func (t *Tree) Encode() string {
	var b strings.Builder
	for i, e := range t.edges {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%d-%d", e.U, e.V)
	}
	return b.String()
}

// IsSpanningTreeOf reports whether every tree edge exists in g.
func (t *Tree) IsSpanningTreeOf(g *graph.Graph) bool {
	if g.N() != t.n {
		return false
	}
	for _, e := range t.edges {
		if !g.HasEdge(e.U, e.V) {
			return false
		}
	}
	return true
}

// HasEdge reports whether the tree contains edge {u, v}.
func (t *Tree) HasEdge(u, v int) bool {
	if u > v {
		u, v = v, u
	}
	for _, e := range t.edges {
		if e.U == u && e.V == v {
			return true
		}
	}
	return false
}

type unionFind struct {
	parent []int
	rank   []int
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n)}
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

// union merges the sets of a and b, reporting false if already joined.
func (uf *unionFind) union(a, b int) bool {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return false
	}
	if uf.rank[ra] < uf.rank[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	if uf.rank[ra] == uf.rank[rb] {
		uf.rank[ra]++
	}
	return true
}

// Count returns the exact number of spanning trees of g (Matrix-Tree).
func Count(g *graph.Graph) (*big.Int, error) {
	return g.SpanningTreeCount()
}

// Enumerate lists every spanning tree of g by depth-first search over edge
// subsets with union-find pruning. It refuses graphs whose weighted tree
// count exceeds limit (exact counting first), since enumeration is for
// small ground-truth audits only. For weighted graphs the Matrix-Tree
// number bounds the tree count from above (weights are >= 1 in audit
// graphs), and the cross-check below compares weighted sums.
func Enumerate(g *graph.Graph, limit int) ([]*Tree, error) {
	count, err := Count(g)
	if err != nil {
		return nil, err
	}
	if !count.IsInt64() || count.Int64() > int64(limit) {
		return nil, fmt.Errorf("spanning: %v trees exceeds enumeration limit %d", count, limit)
	}
	edges := g.Edges()
	n := g.N()
	var out []*Tree
	chosen := make([]graph.Edge, 0, n-1)
	var rec func(idx int, uf *unionFind, joined int)
	rec = func(idx int, uf *unionFind, joined int) {
		if joined == n-1 {
			tree, err := NewTree(n, chosen)
			if err == nil {
				out = append(out, tree)
			}
			return
		}
		if idx >= len(edges) || len(edges)-idx < n-1-joined {
			return
		}
		// Include edges[idx] if it joins two components.
		e := edges[idx]
		if uf.find(e.U) != uf.find(e.V) {
			cp := &unionFind{parent: append([]int(nil), uf.parent...), rank: append([]int(nil), uf.rank...)}
			cp.union(e.U, e.V)
			chosen = append(chosen, e)
			rec(idx+1, cp, joined+1)
			chosen = chosen[:len(chosen)-1]
		}
		// Exclude edges[idx].
		rec(idx+1, uf, joined)
	}
	rec(0, newUnionFind(n), 0)
	// Cross-check against Kirchhoff: for weighted graphs the Matrix-Tree
	// determinant equals the weighted sum of trees, which reduces to the
	// tree count in the unit-weight case.
	var weightedSum float64
	for _, tr := range out {
		w, err := TreeWeight(g, tr)
		if err != nil {
			return nil, err
		}
		weightedSum += w
	}
	want := float64(count.Int64())
	if diff := weightedSum - want; diff > 1e-6*want+1e-9 || diff < -1e-6*want-1e-9 {
		return nil, fmt.Errorf("spanning: enumeration's weighted sum %g disagrees with Matrix-Tree %v", weightedSum, count)
	}
	return out, nil
}

// PruferSample draws a uniformly random labelled tree on n vertices via a
// random Prüfer sequence — the textbook exact uniform sampler for the
// complete graph, used as an independent ground truth in audits.
func PruferSample(n int, src *prng.Source) (*Tree, error) {
	if n < 1 {
		return nil, fmt.Errorf("spanning: Prüfer needs n >= 1, got %d", n)
	}
	if n == 1 {
		return NewTree(1, nil)
	}
	if n == 2 {
		return NewTree(2, []graph.Edge{{U: 0, V: 1, Weight: 1}})
	}
	seq := make([]int, n-2)
	degree := make([]int, n)
	for i := range degree {
		degree[i] = 1
	}
	for i := range seq {
		seq[i] = src.Intn(n)
		degree[seq[i]]++
	}
	// Standard linear-time decode: repeatedly attach the smallest current
	// leaf to the next sequence element. Vertex n-1 always survives to the
	// final edge.
	edges := make([]graph.Edge, 0, n-1)
	ptr := 0
	for degree[ptr] != 1 {
		ptr++
	}
	leaf := ptr
	for _, v := range seq {
		edges = append(edges, graph.Edge{U: leaf, V: v, Weight: 1})
		degree[leaf]--
		degree[v]--
		if degree[v] == 1 && v < ptr {
			leaf = v
		} else {
			ptr++
			for degree[ptr] != 1 {
				ptr++
			}
			leaf = ptr
		}
	}
	edges = append(edges, graph.Edge{U: leaf, V: n - 1, Weight: 1})
	return NewTree(n, edges)
}

// AuditResult summarizes a uniformity audit of a tree sampler.
type AuditResult struct {
	Samples      int
	TreeCount    int64
	DistinctSeen int
	TV           float64 // measured TV from uniform
	Noise        float64 // expected TV of a perfect sampler (sampling noise)
}

// Pass reports whether the measured TV is within factor of the sampling
// noise floor — the acceptance criterion used throughout the experiments.
func (r AuditResult) Pass(factor float64) bool { return r.TV <= factor*r.Noise }

// auditCountLimit bounds the tree counts an audit accepts: the TV estimate
// needs the empirical distribution to resolve individual trees, which is
// hopeless (and the uniform reference meaningless) once the support dwarfs
// any feasible sample size.
const auditCountLimit = 1 << 40

// auditSupport checks that count is a tree count an audit can use.
func auditSupport(count *big.Int) (int64, error) {
	if !count.IsInt64() || count.Sign() <= 0 || count.Int64() > auditCountLimit {
		return 0, fmt.Errorf("spanning: audit needs a positive tree count of at most %d, got %v", int64(auditCountLimit), count)
	}
	return count.Int64(), nil
}

// Audit draws samples trees from sample and compares the empirical
// distribution to the uniform distribution over all spanning trees of g
// (counted exactly) via AuditTrees. It checks the count before drawing.
func Audit(g *graph.Graph, samples int, sample func() (*Tree, error)) (AuditResult, error) {
	if samples < 1 {
		return AuditResult{}, fmt.Errorf("spanning: audit needs at least 1 sample")
	}
	count, err := Count(g)
	if err != nil {
		return AuditResult{}, err
	}
	if _, err := auditSupport(count); err != nil {
		return AuditResult{}, err
	}
	trees := make([]*Tree, samples)
	for i := range trees {
		if trees[i], err = sample(); err != nil {
			return AuditResult{}, fmt.Errorf("spanning: sampler failed at draw %d: %w", i, err)
		}
	}
	return AuditTrees(g, count, trees)
}

// AuditTrees compares already-drawn trees against the uniform distribution
// over g's count spanning trees (count must be exact, e.g. from Count).
// Every tree is validated against g.
func AuditTrees(g *graph.Graph, count *big.Int, trees []*Tree) (AuditResult, error) {
	if len(trees) == 0 {
		return AuditResult{}, fmt.Errorf("spanning: audit needs at least 1 sample")
	}
	support, err := auditSupport(count)
	if err != nil {
		return AuditResult{}, err
	}
	emp := stats.NewEmpirical()
	for i, tr := range trees {
		if tr == nil || !tr.IsSpanningTreeOf(g) {
			return AuditResult{}, fmt.Errorf("spanning: draw %d is not a spanning tree of the graph", i)
		}
		emp.Add(tr.Encode())
	}
	tv, err := emp.TVFromUniform(int(support))
	if err != nil {
		return AuditResult{}, err
	}
	return AuditResult{
		Samples:      len(trees),
		TreeCount:    support,
		DistinctSeen: emp.Support(),
		TV:           tv,
		Noise:        stats.UniformTVSamplingNoise(len(trees), int(support)),
	}, nil
}
