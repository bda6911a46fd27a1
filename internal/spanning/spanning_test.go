package spanning

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/prng"
)

func TestNewTreeValidation(t *testing.T) {
	// Valid path tree.
	tr, err := NewTree(3, []graph.Edge{{U: 1, V: 0}, {U: 1, V: 2}})
	if err != nil {
		t.Fatalf("NewTree: %v", err)
	}
	if tr.N() != 3 || len(tr.Edges()) != 2 {
		t.Error("tree shape wrong")
	}
	// Wrong edge count.
	if _, err := NewTree(3, []graph.Edge{{U: 0, V: 1}}); err == nil {
		t.Error("expected error for too few edges")
	}
	// Cycle.
	if _, err := NewTree(3, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 1}}); err == nil {
		t.Error("expected error for duplicate edge (cycle)")
	}
	// Self loop.
	if _, err := NewTree(2, []graph.Edge{{U: 1, V: 1}}); err == nil {
		t.Error("expected error for self loop")
	}
	// Out of range.
	if _, err := NewTree(2, []graph.Edge{{U: 0, V: 5}}); err == nil {
		t.Error("expected error for out-of-range endpoint")
	}
	// Singleton tree.
	if _, err := NewTree(1, nil); err != nil {
		t.Errorf("singleton tree: %v", err)
	}
}

func TestEncodeCanonical(t *testing.T) {
	a, err := NewTree(4, []graph.Edge{{U: 2, V: 3}, {U: 1, V: 0}, {U: 3, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTree(4, []graph.Edge{{U: 0, V: 1}, {U: 3, V: 2}, {U: 1, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Encode() != b.Encode() {
		t.Errorf("same tree encodes differently: %q vs %q", a.Encode(), b.Encode())
	}
	if a.Encode() != "0-1;1-3;2-3" {
		t.Errorf("encoding = %q, want 0-1;1-3;2-3", a.Encode())
	}
}

func TestIsSpanningTreeOfAndHasEdge(t *testing.T) {
	g, err := graph.Cycle(4)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTree(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.IsSpanningTreeOf(g) {
		t.Error("path tree should be a spanning tree of C4")
	}
	bad, err := NewTree(4, []graph.Edge{{U: 0, V: 2}, {U: 1, V: 2}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if bad.IsSpanningTreeOf(g) {
		t.Error("tree with chord {0,2} is not a subgraph of C4")
	}
	if !tr.HasEdge(1, 0) || tr.HasEdge(0, 3) {
		t.Error("HasEdge wrong")
	}
}

func TestEnumerateMatchesMatrixTree(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"C5", func() (*graph.Graph, error) { return graph.Cycle(5) }},
		{"K4", func() (*graph.Graph, error) { return graph.Complete(4) }},
		{"Wheel5", func() (*graph.Graph, error) { return graph.Wheel(5) }},
		{"K23", func() (*graph.Graph, error) { return graph.CompleteBipartite(2, 3) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			trees, err := Enumerate(g, 1000)
			if err != nil {
				t.Fatal(err)
			}
			count, err := Count(g)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(trees)) != count.Int64() {
				t.Errorf("enumerated %d trees, Matrix-Tree %v", len(trees), count)
			}
			// All distinct, all valid.
			seen := make(map[string]struct{})
			for _, tr := range trees {
				if !tr.IsSpanningTreeOf(g) {
					t.Errorf("enumerated non-subgraph tree %s", tr.Encode())
				}
				if _, dup := seen[tr.Encode()]; dup {
					t.Errorf("duplicate tree %s", tr.Encode())
				}
				seen[tr.Encode()] = struct{}{}
			}
		})
	}
}

func TestEnumerateLimit(t *testing.T) {
	g, err := graph.Complete(8) // 8^6 = 262144 trees
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Enumerate(g, 1000); err == nil {
		t.Error("expected error beyond enumeration limit")
	}
}

// PruferSample draws a uniformly random labelled tree on n vertices via a
// random Prüfer sequence — the textbook exact uniform sampler for the
// complete graph: the known-uniform reference the audit tests check against.
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

func TestPruferSampleValidTrees(t *testing.T) {
	src := prng.New(3)
	for _, n := range []int{1, 2, 3, 4, 7, 20} {
		tr, err := PruferSample(n, src)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.N() != n || len(tr.Edges()) != n-1 {
			t.Errorf("n=%d: malformed tree", n)
		}
	}
	if _, err := PruferSample(0, src); err == nil {
		t.Error("expected error for n=0")
	}
}

func TestPruferSampleUniform(t *testing.T) {
	// Cayley: 4^2 = 16 labelled trees on 4 vertices; the Prüfer bijection is
	// exactly uniform.
	g, err := graph.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	src := prng.New(5)
	res, err := Audit(g, 32000, func() (*Tree, error) { return PruferSample(4, src) })
	if err != nil {
		t.Fatal(err)
	}
	if res.TreeCount != 16 || res.DistinctSeen != 16 {
		t.Errorf("tree count %d, distinct %d; want 16, 16", res.TreeCount, res.DistinctSeen)
	}
	if !res.Pass(3) {
		t.Errorf("Prüfer audit failed: TV %.4f vs noise %.4f", res.TV, res.Noise)
	}
}

func TestAuditDetectsBias(t *testing.T) {
	// A deliberately biased sampler (always the same tree) must fail.
	g, err := graph.Complete(4)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := NewTree(4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Audit(g, 2000, func() (*Tree, error) { return fixed, nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass(3) {
		t.Errorf("biased sampler passed audit: TV %.4f noise %.4f", res.TV, res.Noise)
	}
	if res.TV < 0.9 {
		t.Errorf("point-mass TV %.4f, expected near 15/16", res.TV)
	}
}

func TestAuditRejectsNonSubgraphTrees(t *testing.T) {
	g, err := graph.Cycle(4)
	if err != nil {
		t.Fatal(err)
	}
	chord, err := NewTree(4, []graph.Edge{{U: 0, V: 2}, {U: 1, V: 2}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Audit(g, 10, func() (*Tree, error) { return chord, nil }); err == nil {
		t.Error("expected error for non-subgraph samples")
	}
}

func TestAuditValidation(t *testing.T) {
	g, err := graph.Cycle(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Audit(g, 0, nil); err == nil {
		t.Error("expected error for zero samples")
	}
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(5)
	if !uf.union(0, 1) || !uf.union(2, 3) {
		t.Fatal("fresh unions failed")
	}
	if uf.union(1, 0) {
		t.Error("re-union should report false")
	}
	if !uf.union(1, 3) {
		t.Error("cross-component union failed")
	}
	if uf.find(0) != uf.find(2) {
		t.Error("components not merged")
	}
	if uf.find(4) == uf.find(0) {
		t.Error("vertex 4 should be isolated")
	}
}
