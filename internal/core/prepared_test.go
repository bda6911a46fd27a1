package core

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/spanning"
)

// TestPreparedCacheGolden is the core-level contract behind the engine's
// golden tests: for both the Theorem 1 config and the appendix's exact
// variant, the Prepared path (cached phase-0 state, replayed charges) and
// the fully cold package-level Sample agree tree-for-tree and
// Stats-for-Stats on every seed, including a repeated one.
func TestPreparedCacheGolden(t *testing.T) {
	g, err := graph.Expander(24, prng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{WalkLength: 512}
	cases := []struct {
		name    string
		prepare func() (*Prepared, error)
		cold    func(src *prng.Source) (*spanning.Tree, *Stats, error)
	}{
		{
			name:    "phase",
			prepare: func() (*Prepared, error) { return Prepare(g, cfg) },
			cold:    func(src *prng.Source) (*spanning.Tree, *Stats, error) { return Sample(g, cfg, src) },
		},
		{
			name:    "exact",
			prepare: func() (*Prepared, error) { return PrepareExact(g, cfg) },
			cold:    func(src *prng.Source) (*spanning.Tree, *Stats, error) { return SampleExact(g, cfg, src) },
		},
	}
	for _, tc := range cases {
		prep, err := tc.prepare()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// Seed 40 appears twice: sampling leaves no state behind.
		for _, seed := range []uint64{40, 41, 42, 40} {
			coldTree, coldStats, err := tc.cold(prng.New(seed))
			if err != nil {
				t.Fatalf("%s cold seed %d: %v", tc.name, seed, err)
			}
			warmTree, warmStats, err := prep.Sample(prng.New(seed))
			if err != nil {
				t.Fatalf("%s warm seed %d: %v", tc.name, seed, err)
			}
			if warmTree.Encode() != coldTree.Encode() {
				t.Errorf("%s seed %d: trees diverge between cold and warm", tc.name, seed)
			}
			if !reflect.DeepEqual(warmStats, coldStats) {
				t.Errorf("%s seed %d: warm stats differ from cold:\n%+v\n%+v", tc.name, seed, warmStats, coldStats)
			}
		}
	}
}
