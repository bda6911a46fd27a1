package graph_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/schur"
)

// TestTransitionRefusesAfterDisconnectingRemoval checks that the remembered
// connectivity answer does not outlive an edge removal: once a bridge is
// removed, the Schur builds refuse the graph again.
func TestTransitionRefusesAfterDisconnectingRemoval(t *testing.T) {
	g := graph.MustNew(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}} {
		if err := g.AddUnitEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := schur.NewSubset(4, []int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := schur.Transition(g, sub)
	if err != nil {
		t.Fatalf("Transition on the connected path: %v", err)
	}
	m.Release()
	graph.RemoveEdge(g, 1, 2)
	if g.IsConnected() {
		t.Fatal("IsConnected after removing the bridge")
	}
	if _, err := schur.Transition(g, sub); err == nil {
		t.Fatal("Transition accepted the graph after a removal disconnected it")
	}
	if _, err := schur.ShortcutRows(g, sub, []int{0}); err == nil {
		t.Fatal("ShortcutRows accepted the graph after a removal disconnected it")
	}
	if err := g.AddUnitEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if !g.IsConnected() {
		t.Fatal("IsConnected after restoring the bridge")
	}
}
