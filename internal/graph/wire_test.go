package graph

import (
	"encoding/hex"
	"testing"
)

func squareGraph(t *testing.T, n int) *Graph {
	t.Helper()
	g := MustNew(n)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}} {
		if err := g.AddEdge(e[0], e[1], 1.5); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestGraphDigestProperties(t *testing.T) {
	g1, g2 := squareGraph(t, 4), squareGraph(t, 4)
	if g1.Digest() != g2.Digest() {
		t.Fatal("identical graphs digest differently")
	}
	if err := g2.SetWeight(0, 1, 2.5); err != nil {
		t.Fatal(err)
	}
	if g1.Digest() == g2.Digest() {
		t.Fatal("weight change did not change the digest")
	}
	g3 := squareGraph(t, 5)
	if err := g3.AddEdge(3, 4, 1.5); err != nil {
		t.Fatal(err)
	}
	if g1.Digest() == g3.Digest() {
		t.Fatal("different vertex sets digest identically")
	}
}

// TestDigestPinned pins the digest bytes: GraphInfo.digest is on the wire
// and keys data directories, so the hash layout must never drift.
func TestDigestPinned(t *testing.T) {
	d := squareGraph(t, 4).Digest()
	const want = "37d6767454d292002a62655f13c01a19be7d6b377b55addae84a5f70de363903"
	if got := hex.EncodeToString(d[:]); got != want {
		t.Fatalf("digest %s, want %s", got, want)
	}
}

func TestFromEdgeList(t *testing.T) {
	g, err := FromEdgeList(3, [][]float64{{0, 1}, {1, 2, 2.5}})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 || g.Weight(0, 1) != 1 || g.Weight(1, 2) != 2.5 {
		t.Fatalf("edges %v", g.Edges())
	}
	for _, bad := range [][][]float64{
		{{0}},            // too short
		{{0, 1, 1, 1}},   // too long
		{{0.5, 1}},       // non-integer endpoint
		{{0, 3}},         // out of range
		{{0, 1}, {1, 0}}, // duplicate
		{{0, 1, -1}},     // non-positive weight
	} {
		if _, err := FromEdgeList(3, bad); err == nil {
			t.Errorf("FromEdgeList(3, %v) accepted", bad)
		}
	}
	if _, err := FromEdgeList(0, nil); err == nil {
		t.Error("FromEdgeList(0, nil) accepted")
	}
}
