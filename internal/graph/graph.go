package graph

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Half is one endpoint of an incident edge: the neighbor and the edge weight.
type Half struct {
	To     int
	Weight float64
}

// Edge is an undirected weighted edge with U < V.
type Edge struct {
	U, V   int
	Weight float64
}

// Graph is a simple undirected weighted graph.
//
// The zero value is unusable; construct with New. Mutation is only possible
// through AddEdge/SetWeight, which maintain the adjacency structure and
// weighted degrees.
type Graph struct {
	n      int
	adj    [][]Half
	degree []float64 // weighted degree per vertex
	index  []map[int]int
	m      int

	// cum is the lazily built per-vertex cumulative-weight index random-walk
	// samplers binary-search (CumulativeWeights). Any mutation invalidates
	// it; concurrent readers of a frozen graph may race to rebuild it, which
	// is benign — every build produces identical arrays.
	cum atomic.Pointer[cumWeights]

	// connected records that IsConnected found the graph connected, so
	// callers that check once per phase (the Schur builds) pay for one
	// search per graph. Adding an edge or changing a weight cannot
	// disconnect a graph; removeEdge, the one mutation that can, clears it.
	connected atomic.Bool
}

// cumWeights holds, per vertex, the running prefix sums of incident edge
// weights in adjacency order: rows[v][i] = sum of the first i+1 weights,
// accumulated left to right exactly as a linear scan would.
type cumWeights struct {
	rows [][]float64
}

// MaxVertices caps the vertex count of the two constructors that take n
// from outside the program, FromEdgeList and FromFamily. The experiments'
// largest graph has n = 192; at n = 2048 the sampler's phase-0 prepared
// state is 17 dense n×n float64 matrices, about 570 MB.
const MaxVertices = 2048

// checkVertexCount refuses an n above MaxVertices before anything is
// allocated for it.
func checkVertexCount(n int) error {
	if n > MaxVertices {
		return fmt.Errorf("graph: %d vertices exceeds the limit of %d", n, MaxVertices)
	}
	return nil
}

// New returns an edgeless graph on n vertices. It returns an error when
// n < 1.
func New(n int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("graph: need at least one vertex, got %d", n)
	}
	return &Graph{
		n:      n,
		adj:    make([][]Half, n),
		degree: make([]float64, n),
		index:  make([]map[int]int, n),
	}, nil
}

// MustNew is New for sizes known valid at the call site (tests, generators).
func MustNew(n int) *Graph {
	g, err := New(n)
	if err != nil {
		panic(err)
	}
	return g
}

// N reports the number of vertices.
func (g *Graph) N() int { return g.n }

// M reports the number of edges.
func (g *Graph) M() int { return g.m }

// AddEdge inserts the undirected edge {u, v} with weight w. It returns an
// error for out-of-range endpoints, self-loops, weights that are not
// positive and finite, a weight that would push either endpoint's weighted
// degree to infinity, or a duplicate edge.
func (g *Graph) AddEdge(u, v int, w float64) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at vertex %d", u)
	}
	if err := checkWeight(u, v, w); err != nil {
		return err
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge {%d,%d}", u, v)
	}
	for _, x := range [2]int{u, v} {
		if err := checkDegree(x, g.degree[x]+w); err != nil {
			return err
		}
	}
	g.addHalf(u, v, w)
	g.addHalf(v, u, w)
	g.m++
	return nil
}

// AddUnitEdge is AddEdge with weight 1 (the paper's unweighted input case).
func (g *Graph) AddUnitEdge(u, v int) error { return g.AddEdge(u, v, 1) }

func (g *Graph) addHalf(u, v int, w float64) {
	if g.index[u] == nil {
		g.index[u] = make(map[int]int)
	}
	g.index[u][v] = len(g.adj[u])
	g.adj[u] = append(g.adj[u], Half{To: v, Weight: w})
	g.degree[u] += w
	g.cum.Store(nil)
}

// HasEdge reports whether the edge {u, v} exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n || v < 0 || v >= g.n || u == v {
		return false
	}
	if g.index[u] == nil {
		return false
	}
	_, ok := g.index[u][v]
	return ok
}

// Weight returns the weight of edge {u, v}, or 0 if absent.
func (g *Graph) Weight(u, v int) float64 {
	if !g.HasEdge(u, v) {
		return 0
	}
	return g.adj[u][g.index[u][v]].Weight
}

// SetWeight updates the weight of an existing edge. It returns an error if
// the edge is absent, the weight is not positive and finite, or the new
// weight would push either endpoint's weighted degree to infinity.
func (g *Graph) SetWeight(u, v int, w float64) error {
	if !g.HasEdge(u, v) {
		return fmt.Errorf("graph: SetWeight on missing edge {%d,%d}", u, v)
	}
	if err := checkWeight(u, v, w); err != nil {
		return err
	}
	old := g.Weight(u, v)
	for _, x := range [2]int{u, v} {
		if err := checkDegree(x, g.degree[x]+(w-old)); err != nil {
			return err
		}
	}
	for _, pair := range [2][2]int{{u, v}, {v, u}} {
		a, b := pair[0], pair[1]
		i := g.index[a][b]
		g.degree[a] += w - g.adj[a][i].Weight
		g.adj[a][i].Weight = w
	}
	g.cum.Store(nil)
	return nil
}

// checkWeight rejects an edge weight that is not a positive finite number:
// zero, negative, NaN and ±Inf weights all break the random walk's
// transition probabilities.
func checkWeight(u, v int, w float64) error {
	if !(w > 0) || math.IsInf(w, 1) {
		return fmt.Errorf("graph: weight %g on edge {%d,%d} is not positive and finite", w, u, v)
	}
	return nil
}

// checkDegree rejects a weighted degree that overflowed to infinity, which
// would make every transition probability out of vertex x zero.
func checkDegree(x int, d float64) error {
	if math.IsInf(d, 0) {
		return fmt.Errorf("graph: weighted degree of vertex %d overflows", x)
	}
	return nil
}

// removeEdge deletes an existing edge {u,v}. It is unexported: public graph
// mutation is append-only, but the random-regular switch chain (gen.go)
// needs degree-preserving edge rewiring.
func (g *Graph) removeEdge(u, v int) {
	for _, pair := range [2][2]int{{u, v}, {v, u}} {
		a, b := pair[0], pair[1]
		i := g.index[a][b]
		last := len(g.adj[a]) - 1
		w := g.adj[a][i].Weight
		if i != last {
			moved := g.adj[a][last]
			g.adj[a][i] = moved
			g.index[a][moved.To] = i
		}
		g.adj[a] = g.adj[a][:last]
		delete(g.index[a], b)
		g.degree[a] -= w
	}
	g.m--
	g.cum.Store(nil)
	g.connected.Store(false)
}

// Degree returns the weighted degree of v (sum of incident edge weights).
// For unit-weight graphs this is the combinatorial degree.
func (g *Graph) Degree(v int) float64 { return g.degree[v] }

// NeighborCount returns the number of neighbors of v.
func (g *Graph) NeighborCount(v int) int { return len(g.adj[v]) }

// Neighbors returns a copy of v's incident half-edges.
func (g *Graph) Neighbors(v int) []Half {
	out := make([]Half, len(g.adj[v]))
	copy(out, g.adj[v])
	return out
}

// VisitNeighbors calls fn for each incident half-edge of v without copying.
// fn must not mutate the graph.
func (g *Graph) VisitNeighbors(v int, fn func(Half)) {
	for _, h := range g.adj[v] {
		fn(h)
	}
}

// NeighborAt returns v's i-th incident half-edge in adjacency order without
// copying the list. i must be in [0, NeighborCount(v)).
func (g *Graph) NeighborAt(v, i int) Half { return g.adj[v][i] }

// CumulativeWeights returns v's cumulative incident-weight prefix array,
// aligned with the adjacency order NeighborAt indexes: entry i holds the sum
// of the first i+1 incident edge weights, accumulated left to right exactly
// as a linear scan would — so a binary search for the first entry exceeding
// r picks the same neighbor the scan picks, bit for bit. The index is built
// lazily over the whole graph on first use and invalidated by any mutation;
// walk.Step is the hot consumer (O(log deg) per step on dense graphs).
func (g *Graph) CumulativeWeights(v int) []float64 {
	cw := g.cum.Load()
	if cw == nil {
		cw = g.buildCumWeights()
	}
	return cw.rows[v]
}

func (g *Graph) buildCumWeights() *cumWeights {
	rows := make([][]float64, g.n)
	for v := 0; v < g.n; v++ {
		row := make([]float64, len(g.adj[v]))
		acc := 0.0
		for i, h := range g.adj[v] {
			acc += h.Weight
			row[i] = acc
		}
		rows[v] = row
	}
	cw := &cumWeights{rows: rows}
	g.cum.Store(cw)
	return cw
}

// Edges returns all edges sorted by (U, V).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	for u := 0; u < g.n; u++ {
		for _, h := range g.adj[u] {
			if u < h.To {
				out = append(out, Edge{U: u, V: h.To, Weight: h.Weight})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := MustNew(g.n)
	for _, e := range g.Edges() {
		// Edges of a valid graph always insert cleanly.
		if err := c.AddEdge(e.U, e.V, e.Weight); err != nil {
			panic(fmt.Sprintf("graph: clone re-insertion failed: %v", err))
		}
	}
	return c
}

// IsConnected reports whether the graph is connected (true for n = 1). A
// connected answer is remembered until an edge is removed.
func (g *Graph) IsConnected() bool {
	if g.n == 1 || g.connected.Load() {
		return true
	}
	seen := make([]bool, g.n)
	stack := make([]int, 0, g.n)
	stack = append(stack, 0)
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, h := range g.adj[u] {
			if !seen[h.To] {
				seen[h.To] = true
				count++
				stack = append(stack, h.To)
			}
		}
	}
	if count < g.n {
		return false
	}
	g.connected.Store(true)
	return true
}

// TotalWeight returns the sum of all edge weights.
func (g *Graph) TotalWeight() float64 {
	var s float64
	for _, d := range g.degree {
		s += d
	}
	return s / 2
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.n, g.m)
}
