package doubling

import (
	"reflect"
	"testing"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/prng"
)

// TestDoublingFidelityGolden requires the charged and the materializing
// executor, running the same declarations, to agree on the walks, every
// simulator counter, and the full per-superstep trace — including the
// MaxRecvMsg profile Lemma 10 bounds, which the E5 experiment reads — for
// both routing variants.
func TestDoublingFidelityGolden(t *testing.T) {
	g, err := graph.FromFamily("expander", 20, prng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, balanced := range []bool{true, false} {
		sc := clique.MustNew(20)
		sf := clique.NewMaterializing(20)
		sc.EnableTrace()
		sf.EnableTrace()
		rc, err := Walks(sc, g, 16, Config{Unbalanced: !balanced}, prng.New(9))
		if err != nil {
			t.Fatalf("balanced=%v charged: %v", balanced, err)
		}
		rf, err := Walks(sf, g, 16, Config{Unbalanced: !balanced}, prng.New(9))
		if err != nil {
			t.Fatalf("balanced=%v materializing: %v", balanced, err)
		}
		if !reflect.DeepEqual(rc.Walks, rf.Walks) {
			t.Errorf("balanced=%v: walks differ across executors", balanced)
		}
		if sc.Rounds() != sf.Rounds() || sc.Supersteps() != sf.Supersteps() || sc.TotalWords() != sf.TotalWords() {
			t.Errorf("balanced=%v: counters differ: charged (%d,%d,%d) vs materializing (%d,%d,%d)", balanced,
				sc.Rounds(), sc.Supersteps(), sc.TotalWords(), sf.Rounds(), sf.Supersteps(), sf.TotalWords())
		}
		if !reflect.DeepEqual(sc.Stats(), sf.Stats()) {
			t.Errorf("balanced=%v: traces differ:\ncharged       %+v\nmaterializing %+v", balanced, sc.Stats(), sf.Stats())
		}
	}
}

// TestSampleTreeFidelityGolden covers the chained-walk path (doubling
// iterations plus the leader-driven stitch supersteps) end to end, on both
// executors: trees, TreeStats and per-superstep traces.
func TestSampleTreeFidelityGolden(t *testing.T) {
	run := func(g *graph.Graph, build func(int) *clique.Sim) (string, *TreeStats, []clique.StepStat) {
		t.Helper()
		prev := newSim
		defer func() { newSim = prev }()
		var sim *clique.Sim
		newSim = func(n int) *clique.Sim {
			sim = build(n)
			sim.EnableTrace()
			return sim
		}
		tree, st, err := SampleTree(g, TreeConfig{}, prng.New(4))
		if err != nil {
			t.Fatal(err)
		}
		return tree.Encode(), st, sim.Stats()
	}
	for _, n := range []int{20, 40} {
		g, err := graph.FromFamily("expander", n, prng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		tc, stc, trc := run(g, clique.MustNew)
		tf, stf, trf := run(g, clique.NewMaterializing)
		if tc != tf {
			t.Errorf("n=%d: trees differ across executors", n)
		}
		if !reflect.DeepEqual(stc, stf) {
			t.Errorf("n=%d: stats differ:\ncharged       %+v\nmaterializing %+v", n, stc, stf)
		}
		if !reflect.DeepEqual(trc, trf) {
			t.Errorf("n=%d: per-superstep traces differ (%d vs %d steps)", n, len(trc), len(trf))
		}
	}
}
