package walk

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/prng"
)

func TestStepDistribution(t *testing.T) {
	// Weighted star: from center, transition proportional to weight.
	g := graph.MustNew(3)
	if err := g.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 2, 3); err != nil {
		t.Fatal(err)
	}
	src := prng.New(1)
	counts := [3]int{}
	const trials = 100000
	for i := 0; i < trials; i++ {
		v, err := Step(g, 0, src)
		if err != nil {
			t.Fatal(err)
		}
		counts[v]++
	}
	if got := float64(counts[2]) / trials; math.Abs(got-0.75) > 0.01 {
		t.Errorf("P(0 -> 2) = %.4f, want 0.75", got)
	}
}

func TestStepErrors(t *testing.T) {
	g := graph.MustNew(2)
	src := prng.New(1)
	if _, err := Step(g, 0, src); err == nil {
		t.Error("expected error for isolated vertex")
	}
	if _, err := Step(g, 5, src); err == nil {
		t.Error("expected error for out-of-range vertex")
	}
}

func TestWalkLengthAndAdjacency(t *testing.T) {
	g, err := graph.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	src := prng.New(2)
	traj, err := Walk(g, 3, 50, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(traj) != 51 || traj[0] != 3 {
		t.Fatalf("trajectory len %d start %d, want 51 starting at 3", len(traj), traj[0])
	}
	for i := 1; i < len(traj); i++ {
		if !g.HasEdge(traj[i-1], traj[i]) {
			t.Fatalf("non-edge step %d -> %d", traj[i-1], traj[i])
		}
	}
	if _, err := Walk(g, 0, -1, src); err == nil {
		t.Error("expected error for negative length")
	}
}

func TestCoverWalkCovers(t *testing.T) {
	g, err := graph.Lollipop(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	src := prng.New(3)
	traj, err := CoverWalk(g, 0, 1_000_000, src)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for _, v := range traj {
		seen[v] = true
	}
	if len(seen) != g.N() {
		t.Errorf("cover walk visited %d of %d vertices", len(seen), g.N())
	}
	// Last vertex must be the newly covered one.
	last := traj[len(traj)-1]
	for _, v := range traj[:len(traj)-1] {
		if v == last {
			t.Error("cover walk did not stop at first full coverage")
			break
		}
	}
}

func TestCoverWalkDisconnected(t *testing.T) {
	g := graph.MustNew(4)
	if err := g.AddUnitEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddUnitEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := CoverWalk(g, 0, 1000, prng.New(1)); err == nil {
		t.Error("expected error for disconnected graph")
	}
}

func TestCoverWalkBudgetExceeded(t *testing.T) {
	g, err := graph.Path(50)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CoverWalk(g, 0, 10, prng.New(1)); err == nil {
		t.Error("expected error when budget too small")
	}
}

func TestEstimateCoverTimeCompleteGraph(t *testing.T) {
	// Coupon collector: cover time of K_n is ~ (n-1) H_{n-1}.
	n := 16
	g, err := graph.Complete(n)
	if err != nil {
		t.Fatal(err)
	}
	src := prng.New(6)
	got, err := EstimateCoverTime(g, 0, 300, 100000, src)
	if err != nil {
		t.Fatal(err)
	}
	h := 0.0
	for i := 1; i <= n-1; i++ {
		h += 1 / float64(i)
	}
	want := float64(n-1) * h
	if math.Abs(got-want) > 0.15*want {
		t.Errorf("cover time estimate %.1f, theory %.1f", got, want)
	}
}

func TestCoverTimeOrdering(t *testing.T) {
	// Path cover time (Theta(n^2)) should exceed complete graph cover time
	// (Theta(n log n)) at equal n.
	n := 24
	pathG, err := graph.Path(n)
	if err != nil {
		t.Fatal(err)
	}
	compG, err := graph.Complete(n)
	if err != nil {
		t.Fatal(err)
	}
	src := prng.New(7)
	pct, err := EstimateCoverTime(pathG, 0, 40, 10_000_000, src)
	if err != nil {
		t.Fatal(err)
	}
	cct, err := EstimateCoverTime(compG, 0, 40, 10_000_000, src)
	if err != nil {
		t.Fatal(err)
	}
	if pct <= cct {
		t.Errorf("path cover time %.1f should exceed complete graph %.1f", pct, cct)
	}
}

func TestFirstVisitEdgesFormSpanningTree(t *testing.T) {
	g, err := graph.ErdosRenyi(20, 0.3, prng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	traj, err := CoverWalk(g, 0, 10_000_000, prng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	edges, err := FirstVisitEdges(traj, g.N())
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != g.N()-1 {
		t.Fatalf("%d edges, want %d", len(edges), g.N()-1)
	}
	// Every edge must exist in G; the edge set must be connected and
	// acyclic (n-1 edges + connected = tree).
	tg := graph.MustNew(g.N())
	for _, e := range edges {
		if !g.HasEdge(e.U, e.V) {
			t.Fatalf("tree edge {%d,%d} not in graph", e.U, e.V)
		}
		if err := tg.AddUnitEdge(e.U, e.V); err != nil {
			t.Fatalf("duplicate tree edge {%d,%d}", e.U, e.V)
		}
	}
	if !tg.IsConnected() {
		t.Error("first-visit edges do not form a connected subgraph")
	}
}

func TestFirstVisitEdgesErrors(t *testing.T) {
	if _, err := FirstVisitEdges(nil, 3); err == nil {
		t.Error("expected error for empty trajectory")
	}
	if _, err := FirstVisitEdges([]int{0, 1}, 3); err == nil {
		t.Error("expected error for non-covering trajectory")
	}
	if _, err := FirstVisitEdges([]int{0, 9}, 3); err == nil {
		t.Error("expected error for out-of-range vertex")
	}
}

func TestStationaryDistribution(t *testing.T) {
	g, err := graph.Star(5)
	if err != nil {
		t.Fatal(err)
	}
	pi := StationaryDistribution(g)
	var sum float64
	for _, p := range pi {
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("stationary distribution sums to %g", sum)
	}
	if math.Abs(pi[0]-0.5) > 1e-12 {
		t.Errorf("star center mass %g, want 0.5", pi[0])
	}
}

func TestEstimateCoverTimeErrors(t *testing.T) {
	g, err := graph.Path(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EstimateCoverTime(g, 0, 0, 100, prng.New(1)); err == nil {
		t.Error("expected error for zero trials")
	}
}

// stepLinear is the pre-index O(deg) linear scan Step replaced, kept as the
// reference implementation: the cumulative-weight binary search must draw
// the same neighbor for every (graph, vertex, seed) triple, bit for bit.
func stepLinear(g *graph.Graph, u int, src *prng.Source) (int, error) {
	deg := g.Degree(u)
	if deg <= 0 {
		return 0, nil
	}
	r := src.Float64() * deg
	acc := 0.0
	next := -1
	g.VisitNeighbors(u, func(h graph.Half) {
		if next >= 0 {
			return
		}
		acc += h.Weight
		if r < acc {
			next = h.To
		}
	})
	if next < 0 {
		nb := g.Neighbors(u)
		next = nb[len(nb)-1].To
	}
	return next, nil
}

// TestStepMatchesLinearScan drives Step and the linear-scan reference from
// identical rng streams over weighted and unweighted graphs and requires
// identical draws — the determinism contract that lets the prefix index
// land without perturbing any sampler's output.
func TestStepMatchesLinearScan(t *testing.T) {
	graphs := map[string]*graph.Graph{}
	var err error
	if graphs["complete"], err = graph.Complete(40); err != nil {
		t.Fatal(err)
	}
	if graphs["er"], err = graph.ErdosRenyi(60, 0.3, prng.New(11)); err != nil {
		t.Fatal(err)
	}
	if graphs["lollipop"], err = graph.Lollipop(20, 10); err != nil {
		t.Fatal(err)
	}
	weighted := graph.MustNew(12)
	w := 0.1
	for u := 0; u < 12; u++ {
		for v := u + 1; v < 12; v++ {
			if err := weighted.AddEdge(u, v, w); err != nil {
				t.Fatal(err)
			}
			w += 0.7
		}
	}
	graphs["weighted"] = weighted

	for name, g := range graphs {
		for u := 0; u < g.N(); u += 3 {
			a := prng.New(uint64(1000 + u))
			b := prng.New(uint64(1000 + u))
			for i := 0; i < 200; i++ {
				got, err := Step(g, u, a)
				if err != nil {
					t.Fatal(err)
				}
				want, err := stepLinear(g, u, b)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s vertex %d draw %d: Step picked %d, linear scan %d", name, u, i, got, want)
				}
			}
		}
	}
}

// TestCumulativeWeightsInvalidation checks the index tracks mutations: a
// weight change after the index was built must be reflected in later draws.
func TestCumulativeWeightsInvalidation(t *testing.T) {
	g := graph.MustNew(3)
	if err := g.AddEdge(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 2, 1); err != nil {
		t.Fatal(err)
	}
	_ = g.CumulativeWeights(0) // build
	if err := g.SetWeight(0, 2, 1e9); err != nil {
		t.Fatal(err)
	}
	cum := g.CumulativeWeights(0)
	if cum[len(cum)-1] != g.Degree(0) {
		t.Fatalf("stale cumulative weights after SetWeight: %v vs degree %g", cum, g.Degree(0))
	}
	counts := map[int]int{}
	for i := 0; i < 100; i++ {
		v, err := Step(g, 0, prng.New(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		counts[v]++
	}
	if counts[2] < 99 {
		t.Errorf("after reweighting, vertex 2 drawn %d/100 times", counts[2])
	}
}

// The dense-graph win the prefix index buys: O(log deg) per step vs the
// linear scan's O(deg). Run with -bench Step ./internal/walk/.
func benchmarkStep(b *testing.B, step func(*graph.Graph, int, *prng.Source) (int, error)) {
	g, err := graph.Complete(512)
	if err != nil {
		b.Fatal(err)
	}
	g.CumulativeWeights(0) // build outside the timer
	src := prng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := step(g, i%512, src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStepDensePrefix(b *testing.B) { benchmarkStep(b, Step) }
func BenchmarkStepDenseLinear(b *testing.B) { benchmarkStep(b, stepLinear) }
