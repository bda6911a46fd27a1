package doubling

import (
	"reflect"
	"testing"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/prng"
)

// TestDoublingFidelityGolden requires charged and full executions of the
// doubling algorithm to agree on the walks, every simulator counter, and the
// full per-superstep trace — including the MaxRecvMsg profile Lemma 10
// bounds, which the E5 experiment reads — for both routing variants.
func TestDoublingFidelityGolden(t *testing.T) {
	g, err := graph.FromFamily("expander", 20, prng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, balanced := range []bool{true, false} {
		sc := clique.MustNew(20)
		sf := clique.MustNew(20)
		sc.EnableTrace()
		sf.EnableTrace()
		rc, err := Walks(sc, g, 16, Config{Unbalanced: !balanced, Fidelity: "charged"}, prng.New(9))
		if err != nil {
			t.Fatalf("balanced=%v charged: %v", balanced, err)
		}
		rf, err := Walks(sf, g, 16, Config{Unbalanced: !balanced, Fidelity: "full"}, prng.New(9))
		if err != nil {
			t.Fatalf("balanced=%v full: %v", balanced, err)
		}
		if !reflect.DeepEqual(rc.Walks, rf.Walks) {
			t.Errorf("balanced=%v: walks differ across fidelities", balanced)
		}
		if sc.Rounds() != sf.Rounds() || sc.Supersteps() != sf.Supersteps() || sc.TotalWords() != sf.TotalWords() {
			t.Errorf("balanced=%v: counters differ: charged (%d,%d,%d) vs full (%d,%d,%d)", balanced,
				sc.Rounds(), sc.Supersteps(), sc.TotalWords(), sf.Rounds(), sf.Supersteps(), sf.TotalWords())
		}
		if !reflect.DeepEqual(sc.Stats(), sf.Stats()) {
			t.Errorf("balanced=%v: traces differ:\ncharged %+v\nfull    %+v", balanced, sc.Stats(), sf.Stats())
		}
	}
}

// TestSampleTreeFidelityGolden covers the chained-walk path (doubling
// iterations plus the leader-driven stitch supersteps) end to end.
func TestSampleTreeFidelityGolden(t *testing.T) {
	g, err := graph.FromFamily("expander", 20, prng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	tc, stc, err := SampleTree(g, TreeConfig{Doubling: Config{Fidelity: "charged"}}, prng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	tf, stf, err := SampleTree(g, TreeConfig{Doubling: Config{Fidelity: "full"}}, prng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if tc.Encode() != tf.Encode() {
		t.Error("trees differ across fidelities")
	}
	if !reflect.DeepEqual(stc, stf) {
		t.Errorf("stats differ:\ncharged %+v\nfull    %+v", stc, stf)
	}
}

// TestDoublingFidelityValidation rejects typo'd modes instead of silently
// selecting a fidelity, matching core.Config's behavior.
func TestDoublingFidelityValidation(t *testing.T) {
	g, err := graph.FromFamily("cycle", 8, prng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	sim := clique.MustNew(8)
	if _, err := Walks(sim, g, 4, Config{Fidelity: "chargd"}, prng.New(1)); err == nil {
		t.Error("Walks accepted an unknown fidelity")
	}
	if _, _, err := SampleTree(g, TreeConfig{Doubling: Config{Fidelity: "chargd"}}, prng.New(1)); err == nil {
		t.Error("SampleTree accepted an unknown fidelity")
	}
}
