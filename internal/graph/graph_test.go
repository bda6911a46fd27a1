package graph

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/prng"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0); err == nil {
		t.Error("expected error for n=0")
	}
	g, err := New(3)
	if err != nil || g.N() != 3 || g.M() != 0 {
		t.Errorf("New(3) = %v, %v", g, err)
	}
}

func TestAddEdgeValidation(t *testing.T) {
	g := MustNew(3)
	for _, tc := range []struct {
		name string
		u, v int
		w    float64
	}{
		{"out of range", 0, 3, 1},
		{"negative endpoint", -1, 0, 1},
		{"self-loop", 1, 1, 1},
		{"zero weight", 0, 1, 0},
		{"negative weight", 0, 1, -2},
		{"NaN weight", 0, 1, math.NaN()},
		{"+Inf weight", 0, 1, math.Inf(1)},
		{"-Inf weight", 0, 1, math.Inf(-1)},
	} {
		if err := g.AddEdge(tc.u, tc.v, tc.w); err == nil {
			t.Errorf("%s: AddEdge(%d, %d, %g) accepted", tc.name, tc.u, tc.v, tc.w)
		}
	}
	if g.M() != 0 || g.Degree(0) != 0 || g.Degree(1) != 0 {
		t.Fatalf("rejected edges mutated the graph: m=%d", g.M())
	}
	if err := g.AddEdge(0, 1, 2.5); err != nil {
		t.Fatalf("AddEdge: %v", err)
	}
	if err := g.AddEdge(1, 0, 1); err == nil {
		t.Error("expected duplicate edge error")
	}
}

// TestWeightedDegreeOverflowRejected pins the finite-degree invariant: an
// edge or reweight whose weight is finite but pushes a weighted degree to
// +Inf is rejected and leaves the graph unchanged, since an infinite degree
// zeroes every transition probability out of that vertex.
func TestWeightedDegreeOverflowRejected(t *testing.T) {
	g := MustNew(4)
	if err := g.AddEdge(0, 1, 1e308); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2, 1e308); err == nil {
		t.Error("edge overflowing Degree(1) accepted")
	}
	if g.M() != 1 || g.Degree(1) != 1e308 || g.Degree(2) != 0 {
		t.Errorf("rejected edge mutated the graph: m=%d deg1=%g deg2=%g", g.M(), g.Degree(1), g.Degree(2))
	}
	if err := g.AddEdge(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.SetWeight(1, 2, 1e308); err == nil {
		t.Error("reweight overflowing Degree(1) accepted")
	}
	if g.Weight(1, 2) != 1 || math.IsInf(g.Degree(1), 0) {
		t.Errorf("rejected reweight mutated the graph: w=%g deg1=%g", g.Weight(1, 2), g.Degree(1))
	}
	// Lowering a huge weight is always fine.
	if err := g.SetWeight(0, 1, 1); err != nil {
		t.Errorf("SetWeight down: %v", err)
	}
}

func TestEdgeAccessors(t *testing.T) {
	g := MustNew(4)
	if err := g.AddEdge(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(1, 0) {
		t.Error("HasEdge not symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Error("phantom edge")
	}
	if w := g.Weight(2, 1); w != 3 {
		t.Errorf("Weight(2,1) = %g, want 3", w)
	}
	if w := g.Weight(0, 3); w != 0 {
		t.Errorf("Weight of absent edge = %g, want 0", w)
	}
	if d := g.Degree(1); d != 5 {
		t.Errorf("Degree(1) = %g, want 5", d)
	}
	if c := g.NeighborCount(1); c != 2 {
		t.Errorf("NeighborCount(1) = %d, want 2", c)
	}
	if tw := g.TotalWeight(); tw != 5 {
		t.Errorf("TotalWeight = %g, want 5", tw)
	}
}

func TestSetWeight(t *testing.T) {
	g := MustNew(2)
	if err := g.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.SetWeight(0, 1, 4); err != nil {
		t.Fatalf("SetWeight: %v", err)
	}
	if g.Weight(1, 0) != 4 || g.Degree(0) != 4 || g.Degree(1) != 4 {
		t.Error("SetWeight did not update both directions and degrees")
	}
	for _, w := range []float64{-1, 0, math.NaN(), math.Inf(1)} {
		if err := g.SetWeight(0, 1, w); err == nil {
			t.Errorf("SetWeight(0, 1, %g) accepted", w)
		}
	}
	if g.Weight(0, 1) != 4 || g.Degree(0) != 4 {
		t.Error("rejected SetWeight mutated the graph")
	}
	g2 := MustNew(3)
	if err := g2.SetWeight(0, 1, 1); err == nil {
		t.Error("expected error for missing edge")
	}
}

func TestNeighborsIsCopy(t *testing.T) {
	g := MustNew(3)
	if err := g.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	nb := g.Neighbors(0)
	nb[0].Weight = 99
	if g.Weight(0, 1) != 1 {
		t.Error("Neighbors aliases internal adjacency")
	}
}

func TestVisitNeighbors(t *testing.T) {
	g := MustNew(4)
	for v := 1; v < 4; v++ {
		if err := g.AddEdge(0, v, float64(v)); err != nil {
			t.Fatal(err)
		}
	}
	var sum float64
	g.VisitNeighbors(0, func(h Half) { sum += h.Weight })
	if sum != 6 {
		t.Errorf("VisitNeighbors weight sum = %g, want 6", sum)
	}
}

func TestEdgesSortedAndComplete(t *testing.T) {
	g := MustNew(4)
	mustAdd(g, 2, 3, 1)
	mustAdd(g, 0, 1, 1)
	mustAdd(g, 1, 3, 1)
	es := g.Edges()
	if len(es) != 3 {
		t.Fatalf("Edges returned %d edges, want 3", len(es))
	}
	for i := 1; i < len(es); i++ {
		if es[i-1].U > es[i].U || (es[i-1].U == es[i].U && es[i-1].V >= es[i].V) {
			t.Error("Edges not sorted")
		}
	}
	for _, e := range es {
		if e.U >= e.V {
			t.Errorf("edge %v not normalized U < V", e)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := MustNew(3)
	mustAdd(g, 0, 1, 1)
	c := g.Clone()
	mustAdd(c, 1, 2, 1)
	if g.M() != 1 || c.M() != 2 {
		t.Error("Clone shares state with original")
	}
}

func TestIsConnected(t *testing.T) {
	g := MustNew(4)
	mustAdd(g, 0, 1, 1)
	mustAdd(g, 2, 3, 1)
	if g.IsConnected() {
		t.Error("disconnected graph reported connected")
	}
	mustAdd(g, 1, 2, 1)
	if !g.IsConnected() {
		t.Error("connected graph reported disconnected")
	}
	if !MustNew(1).IsConnected() {
		t.Error("singleton graph should be connected")
	}
}

func TestGenerators(t *testing.T) {
	src := prng.New(5)
	cases := []struct {
		name    string
		build   func() (*Graph, error)
		n, m    int
		regular int // -1 if not regular
	}{
		{"Complete(6)", func() (*Graph, error) { return Complete(6) }, 6, 15, 5},
		{"Path(5)", func() (*Graph, error) { return Path(5) }, 5, 4, -1},
		{"Cycle(7)", func() (*Graph, error) { return Cycle(7) }, 7, 7, 2},
		{"Star(6)", func() (*Graph, error) { return Star(6) }, 6, 5, -1},
		{"Wheel(6)", func() (*Graph, error) { return Wheel(6) }, 6, 10, -1},
		{"Grid(3,4)", func() (*Graph, error) { return Grid(3, 4) }, 12, 17, -1},
		{"Torus(3,4)", func() (*Graph, error) { return Torus(3, 4) }, 12, 24, 4},
		{"Hypercube(4)", func() (*Graph, error) { return Hypercube(4) }, 16, 32, 4},
		{"BinaryTree(7)", func() (*Graph, error) { return BinaryTree(7) }, 7, 6, -1},
		{"CompleteBipartite(3,4)", func() (*Graph, error) { return CompleteBipartite(3, 4) }, 7, 12, -1},
		{"UnbalancedBipartite(16)", func() (*Graph, error) { return UnbalancedBipartite(16) }, 16, 48, -1},
		{"Lollipop(4,3)", func() (*Graph, error) { return Lollipop(4, 3) }, 7, 9, -1},
		{"Barbell(4)", func() (*Graph, error) { return Barbell(4) }, 8, 13, -1},
		{"RandomRegular(10,3)", func() (*Graph, error) { return RandomRegular(10, 3, src) }, 10, 15, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, err := c.build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if g.N() != c.n {
				t.Errorf("n = %d, want %d", g.N(), c.n)
			}
			if g.M() != c.m {
				t.Errorf("m = %d, want %d", g.M(), c.m)
			}
			if !g.IsConnected() {
				t.Error("generator produced disconnected graph")
			}
			if c.regular >= 0 {
				for v := 0; v < g.N(); v++ {
					if g.NeighborCount(v) != c.regular {
						t.Errorf("vertex %d degree %d, want %d", v, g.NeighborCount(v), c.regular)
					}
				}
			}
		})
	}
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := Cycle(2); err == nil {
		t.Error("Cycle(2) should fail")
	}
	if _, err := Star(1); err == nil {
		t.Error("Star(1) should fail")
	}
	if _, err := Wheel(3); err == nil {
		t.Error("Wheel(3) should fail")
	}
	if _, err := Grid(0, 5); err == nil {
		t.Error("Grid(0,5) should fail")
	}
	if _, err := Torus(2, 3); err == nil {
		t.Error("Torus(2,3) should fail")
	}
	if _, err := Hypercube(0); err == nil {
		t.Error("Hypercube(0) should fail")
	}
	if _, err := CompleteBipartite(0, 3); err == nil {
		t.Error("CompleteBipartite(0,3) should fail")
	}
	if _, err := Lollipop(1, 1); err == nil {
		t.Error("Lollipop(1,1) should fail")
	}
	if _, err := Barbell(1); err == nil {
		t.Error("Barbell(1) should fail")
	}
	src := prng.New(1)
	if _, err := ErdosRenyi(5, 1.5, src); err == nil {
		t.Error("ErdosRenyi p>1 should fail")
	}
	if _, err := ErdosRenyi(1, 0.5, src); err == nil {
		t.Error("ErdosRenyi n=1 should fail")
	}
	if _, err := RandomRegular(5, 3, src); err == nil {
		t.Error("RandomRegular with odd n*d should fail")
	}
	if _, err := RandomRegular(4, 4, src); err == nil {
		t.Error("RandomRegular d>=n should fail")
	}
}

func TestErdosRenyiConnected(t *testing.T) {
	src := prng.New(17)
	n := 40
	p := 3 * math.Log(float64(n)) / float64(n)
	g, err := ErdosRenyi(n, p, src)
	if err != nil {
		t.Fatalf("ErdosRenyi: %v", err)
	}
	if !g.IsConnected() {
		t.Error("G(n, 3 ln n / n) sample not connected")
	}
	if g.N() != n {
		t.Errorf("n = %d, want %d", g.N(), n)
	}
}

func TestExpander(t *testing.T) {
	src := prng.New(23)
	g, err := Expander(50, src)
	if err != nil {
		t.Fatalf("Expander: %v", err)
	}
	if !g.IsConnected() {
		t.Error("expander not connected")
	}
	// Small n falls back to the complete graph.
	small, err := Expander(5, src)
	if err != nil || small.M() != 10 {
		t.Errorf("Expander(5) = %v, %v; want K5", small, err)
	}
}

func TestLaplacianRowSumsZero(t *testing.T) {
	f := func(seed uint64) bool {
		src := prng.New(seed)
		g, err := ErdosRenyi(12, 0.5, src)
		if err != nil {
			return false
		}
		l := g.Laplacian()
		for i := 0; i < g.N(); i++ {
			var s float64
			for j := 0; j < g.N(); j++ {
				s += l.At(i, j)
			}
			if math.Abs(s) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestTransitionMatrixStochastic(t *testing.T) {
	g, err := Lollipop(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := g.TransitionMatrix()
	if err != nil {
		t.Fatalf("TransitionMatrix: %v", err)
	}
	if !p.IsStochastic(1e-12) {
		t.Error("transition matrix is not row stochastic")
	}
	// Weighted case: transition proportional to edge weight.
	w := MustNew(3)
	mustAdd(w, 0, 1, 1)
	mustAdd(w, 0, 2, 3)
	pw, err := w.TransitionMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pw.At(0, 1)-0.25) > 1e-12 || math.Abs(pw.At(0, 2)-0.75) > 1e-12 {
		t.Errorf("weighted transitions = %g, %g; want 0.25, 0.75", pw.At(0, 1), pw.At(0, 2))
	}
}

func TestTransitionMatrixIsolatedVertex(t *testing.T) {
	g := MustNew(3)
	mustAdd(g, 0, 1, 1)
	if _, err := g.TransitionMatrix(); err == nil {
		t.Error("expected error for isolated vertex")
	}
}

func TestSpanningTreeCountKnown(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*Graph, error)
		want  int64
	}{
		{"K4 (Cayley 4^2)", func() (*Graph, error) { return Complete(4) }, 16},
		{"K5 (Cayley 5^3)", func() (*Graph, error) { return Complete(5) }, 125},
		{"Path(6)", func() (*Graph, error) { return Path(6) }, 1},
		{"Cycle(7)", func() (*Graph, error) { return Cycle(7) }, 7},
		{"K33", func() (*Graph, error) { return CompleteBipartite(3, 3) }, 81}, // a^{b-1} b^{a-1} = 9*9
		{"Star(9)", func() (*Graph, error) { return Star(9) }, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			cnt, err := g.SpanningTreeCount()
			if err != nil {
				t.Fatalf("SpanningTreeCount: %v", err)
			}
			if cnt.Int64() != c.want {
				t.Errorf("count = %v, want %d", cnt, c.want)
			}
		})
	}
}

func TestSpanningTreeCountSingleton(t *testing.T) {
	cnt, err := MustNew(1).SpanningTreeCount()
	if err != nil || cnt.Int64() != 1 {
		t.Errorf("count = %v, %v; want 1", cnt, err)
	}
}

func TestSpanningTreeCountNonIntegerWeight(t *testing.T) {
	g := MustNew(2)
	mustAdd(g, 0, 1, 1.5)
	if _, err := g.SpanningTreeCount(); err == nil {
		t.Error("expected error for non-integer weights")
	}
}

func TestSpanningTreeCountWeighted(t *testing.T) {
	// Triangle with one doubled edge: trees are the 3 edge pairs, weight of
	// a tree = product of weights. Pairs: {2,1}=2, {2,1}=2, {1,1}=1 => 5.
	g := MustNew(3)
	mustAdd(g, 0, 1, 2)
	mustAdd(g, 1, 2, 1)
	mustAdd(g, 0, 2, 1)
	cnt, err := g.SpanningTreeCount()
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Int64() != 5 {
		t.Errorf("weighted tree count = %v, want 5", cnt)
	}
}

func TestFigure2Graph(t *testing.T) {
	g := Figure2Graph()
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("Figure 2 graph has n=%d m=%d, want 4, 3", g.N(), g.M())
	}
	// C (vertex 2) is the hub.
	if g.NeighborCount(2) != 3 {
		t.Error("Figure 2 center C should have degree 3")
	}
}
