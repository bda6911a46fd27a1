package core

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/mm"
	"repro/internal/prng"
	"repro/internal/spanning"
)

func chordedCycle(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.Cycle(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddUnitEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSampleProducesValidTrees(t *testing.T) {
	src := prng.New(7)
	cases := []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"C4+chord", func() (*graph.Graph, error) { return chordedCycle(t), nil }},
		{"K6", func() (*graph.Graph, error) { return graph.Complete(6) }},
		{"Path8", func() (*graph.Graph, error) { return graph.Path(8) }},
		{"Lollipop(5,4)", func() (*graph.Graph, error) { return graph.Lollipop(5, 4) }},
		{"Grid3x3", func() (*graph.Graph, error) { return graph.Grid(3, 3) }},
		{"ER16", func() (*graph.Graph, error) { return graph.ErdosRenyi(16, 0.4, src) }},
		{"Star7", func() (*graph.Graph, error) { return graph.Star(7) }},
		{"Bipartite3x4", func() (*graph.Graph, error) { return graph.CompleteBipartite(3, 4) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				tree, stats, err := Sample(g, Config{}, prng.New(uint64(100*i+1)))
				if err != nil {
					t.Fatalf("Sample: %v", err)
				}
				if !tree.IsSpanningTreeOf(g) {
					t.Fatalf("run %d: not a spanning tree: %s", i, tree.Encode())
				}
				if stats.Rounds <= 0 || stats.Phases <= 0 {
					t.Fatalf("run %d: degenerate stats %+v", i, stats)
				}
			}
		})
	}
}

func TestSampleSingletonAndEdge(t *testing.T) {
	single := graph.MustNew(1)
	tree, _, err := Sample(single, Config{}, prng.New(1))
	if err != nil || tree.N() != 1 {
		t.Errorf("singleton: %v, %v", tree, err)
	}
	pair, err := graph.Path(2)
	if err != nil {
		t.Fatal(err)
	}
	tree, _, err = Sample(pair, Config{}, prng.New(1))
	if err != nil || !tree.HasEdge(0, 1) {
		t.Errorf("two-vertex graph: %v, %v", tree, err)
	}
}

func TestSampleValidation(t *testing.T) {
	g := chordedCycle(t)
	if _, _, err := Sample(g, Config{}, nil); err == nil {
		t.Error("expected error for nil source")
	}
	if _, _, err := Sample(g, Config{Epsilon: 2}, prng.New(1)); err == nil {
		t.Error("expected error for bad epsilon")
	}
	if _, _, err := Sample(g, Config{WalkLength: 12}, prng.New(1)); err == nil {
		t.Error("expected error for non-power-of-two walk length")
	}
	if _, _, err := Sample(g, Config{Rho: 1}, prng.New(1)); err == nil {
		t.Error("expected error for rho < 2")
	}
	disc := graph.MustNew(3)
	if err := disc.AddUnitEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Sample(disc, Config{}, prng.New(1)); err == nil {
		t.Error("expected error for disconnected graph")
	}
}

// TestSampleUniformity is experiment E2 in unit-test form: the sampled tree
// distribution on a graph with exactly 8 spanning trees must be within
// sampling noise of uniform (Theorem 1 / Lemma 6).
func TestSampleUniformity(t *testing.T) {
	if testing.Short() {
		t.Skip("distribution audit is expensive")
	}
	g := chordedCycle(t)
	cfg := Config{WalkLength: 256}
	const samples = 8000
	seed := uint64(0)
	res, err := spanning.Audit(g, samples, func() (*spanning.Tree, error) {
		seed++
		tree, _, err := Sample(g, cfg, prng.New(seed))
		return tree, err
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("E2 audit: TV=%.4f noise=%.4f distinct=%d/%d", res.TV, res.Noise, res.DistinctSeen, res.TreeCount)
	if !res.Pass(3) {
		t.Errorf("uniformity audit failed: TV %.4f vs noise %.4f", res.TV, res.Noise)
	}
	if res.DistinctSeen != int(res.TreeCount) {
		t.Errorf("saw %d of %d trees", res.DistinctSeen, res.TreeCount)
	}
}

// TestSampleUniformityLargerRho audits a 6-vertex wheel with rho=3 so that
// multi-midpoint matching placement is exercised on non-trivial instances.
func TestSampleUniformityLargerRho(t *testing.T) {
	if testing.Short() {
		t.Skip("distribution audit is expensive")
	}
	g, err := graph.Wheel(5) // 45 spanning trees
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{WalkLength: 256, Rho: 3}
	const samples = 9000
	seed := uint64(10_000)
	res, err := spanning.Audit(g, samples, func() (*spanning.Tree, error) {
		seed++
		tree, _, err := Sample(g, cfg, prng.New(seed))
		return tree, err
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("wheel audit: TV=%.4f noise=%.4f distinct=%d/%d", res.TV, res.Noise, res.DistinctSeen, res.TreeCount)
	if !res.Pass(3) {
		t.Errorf("uniformity audit failed: TV %.4f vs noise %.4f", res.TV, res.Noise)
	}
}

// TestBackendsSameDistributionSeed checks that the matmul backend affects
// rounds but not the sampled tree (same seed, same tree).
func TestBackendsSameDistributionSeed(t *testing.T) {
	g, err := graph.ErdosRenyi(12, 0.4, prng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	var trees []string
	var rounds []int
	for _, be := range []mm.Backend{mm.Fast{}, mm.Semiring3D{}, mm.Naive{}} {
		tree, stats, err := Sample(g, Config{Backend: be, WalkLength: 256}, prng.New(42))
		if err != nil {
			t.Fatalf("%s: %v", be.Name(), err)
		}
		trees = append(trees, tree.Encode())
		rounds = append(rounds, stats.Rounds)
	}
	if trees[0] != trees[1] || trees[1] != trees[2] {
		t.Errorf("same seed produced different trees across backends: %v", trees)
	}
	if !(rounds[0] < rounds[1] && rounds[1] < rounds[2]) {
		t.Errorf("round ordering fast < 3d < naive violated: %v", rounds)
	}
}

// TestPhaseProgress verifies each phase visits at least one new vertex and
// phases stop when the graph is covered.
func TestPhaseProgress(t *testing.T) {
	g, err := graph.Lollipop(6, 6)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := Sample(g, Config{}, prng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for i, nv := range stats.NewVertices {
		if nv < 1 {
			t.Errorf("phase %d made no progress", i)
		}
		total += nv
	}
	if total != g.N()-1 {
		t.Errorf("phases visited %d new vertices, want %d", total, g.N()-1)
	}
}

// TestRhoControlsPhases: larger rho means fewer phases on a graph the walk
// covers easily.
func TestRhoControlsPhases(t *testing.T) {
	g, err := graph.Complete(16)
	if err != nil {
		t.Fatal(err)
	}
	_, small, err := Sample(g, Config{Rho: 2}, prng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	_, large, err := Sample(g, Config{Rho: 8}, prng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if large.Phases >= small.Phases {
		t.Errorf("rho=8 used %d phases, rho=2 used %d; expected fewer with larger budget", large.Phases, small.Phases)
	}
}

// TestNumericTruncationStillUniform runs the sampler with Lemma 7's
// fixed-point truncation enabled and checks trees remain valid and the
// small-graph distribution stays near uniform (Lemma 9's claim for small
// enough beta).
func TestNumericTruncationStillUniform(t *testing.T) {
	if testing.Short() {
		t.Skip("distribution audit is expensive")
	}
	g := chordedCycle(t)
	cfg := Config{WalkLength: 256, TruncDelta: 1e-9}
	const samples = 6000
	seed := uint64(50_000)
	res, err := spanning.Audit(g, samples, func() (*spanning.Tree, error) {
		seed++
		tree, _, err := Sample(g, cfg, prng.New(seed))
		return tree, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass(3) {
		t.Errorf("truncated-precision audit failed: TV %.4f vs noise %.4f", res.TV, res.Noise)
	}
}

// TestMatchingSamplerChoiceIrrelevant: the matching placement path (the
// exact sampler, on the short walks a triangle produces) must produce valid
// trees, and over 40 seeds all 3 triangle trees.
func TestMatchingSamplerChoiceIrrelevant(t *testing.T) {
	g, err := graph.Cycle(3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	matched := 0
	for i := 0; i < 40; i++ {
		tree, st, err := Sample(g, Config{WalkLength: 64}, prng.New(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if !tree.IsSpanningTreeOf(g) {
			t.Fatal("invalid tree")
		}
		seen[tree.Encode()] = true
		matched = max(matched, st.MaxMatchingSize)
	}
	if len(seen) != 3 {
		t.Errorf("saw %d of 3 triangle trees", len(seen))
	}
	if matched == 0 {
		t.Error("no draw placed midpoints through the matching sampler")
	}
}

// TestDeterministicGivenSeed: identical seeds give identical trees and
// stats.
func TestDeterministicGivenSeed(t *testing.T) {
	g, err := graph.ErdosRenyi(10, 0.5, prng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	t1, s1, err := Sample(g, Config{}, prng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	t2, s2, err := Sample(g, Config{}, prng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	if t1.Encode() != t2.Encode() {
		t.Error("same seed, different trees")
	}
	if s1.Rounds != s2.Rounds || s1.Supersteps != s2.Supersteps {
		t.Error("same seed, different cost profile")
	}
}

// TestPeriodicSchurDegeneracy exercises the bipartite end-game: complete
// bipartite graphs produce 2-periodic Schur complements whose partial walks
// grow before the final level resolves; the direct placement path must
// handle it.
func TestPeriodicSchurDegeneracy(t *testing.T) {
	g, err := graph.CompleteBipartite(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		tree, _, err := Sample(g, Config{WalkLength: 1024}, prng.New(uint64(i)))
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !tree.IsSpanningTreeOf(g) {
			t.Fatalf("run %d: invalid tree", i)
		}
	}
}

func TestDefaultWalkLength(t *testing.T) {
	ell := DefaultWalkLength(4, 0.25)
	if ell < 64 || ell&(ell-1) != 0 {
		t.Errorf("DefaultWalkLength(4, 0.25) = %d; want a power of two >= n^3", ell)
	}
	big := DefaultWalkLength(256, 1.0/256)
	if big < 256*256*256 {
		t.Errorf("walk length %d below n^3", big)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg, err := Config{}.withDefaults(64)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Rho != 8 {
		t.Errorf("default rho = %d, want 8", cfg.Rho)
	}
	if cfg.WalkLength > SimWalkCap {
		t.Errorf("default walk length %d above cap", cfg.WalkLength)
	}
	if cfg.Backend == nil {
		t.Error("defaults not filled")
	}
}

// TestStatsShape sanity-checks the reported statistics.
func TestStatsShape(t *testing.T) {
	g, err := graph.Complete(9)
	if err != nil {
		t.Fatal(err)
	}
	tree, stats, err := Sample(g, Config{}, prng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Supersteps <= 0 || stats.TotalWords <= 0 || stats.Levels <= 0 {
		t.Errorf("degenerate stats: %+v", stats)
	}
	if stats.WalkSteps < g.N()-1 {
		t.Errorf("walk steps %d below n-1", stats.WalkSteps)
	}
	if len(stats.NewVertices) != stats.Phases {
		t.Errorf("NewVertices length %d != phases %d", len(stats.NewVertices), stats.Phases)
	}
	if strings.Count(tree.Encode(), ";") != g.N()-2 {
		t.Errorf("tree encoding malformed: %s", tree.Encode())
	}
}

// TestSampleExactValidTrees exercises the appendix variant end to end.
func TestSampleExactValidTrees(t *testing.T) {
	g, err := graph.Lollipop(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		tree, stats, err := SampleExact(g, Config{}, prng.New(uint64(i)))
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !tree.IsSpanningTreeOf(g) {
			t.Fatalf("run %d: invalid tree", i)
		}
		if stats.MaxMatchingSize != 0 {
			t.Errorf("exact variant sampled a matching (size %d); must use direct placement", stats.MaxMatchingSize)
		}
	}
}

// TestSampleExactUniformity audits the exact variant's distribution.
func TestSampleExactUniformity(t *testing.T) {
	if testing.Short() {
		t.Skip("distribution audit is expensive")
	}
	g := chordedCycle(t)
	cfg := Config{WalkLength: 256}
	const samples = 8000
	seed := uint64(90_000)
	res, err := spanning.Audit(g, samples, func() (*spanning.Tree, error) {
		seed++
		tree, _, err := SampleExact(g, cfg, prng.New(seed))
		return tree, err
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("exact-variant audit: TV=%.4f noise=%.4f", res.TV, res.Noise)
	if !res.Pass(3) {
		t.Errorf("exact variant audit failed: TV %.4f vs noise %.4f", res.TV, res.Noise)
	}
}

// TestExactRho checks the appendix's budget.
func TestExactRho(t *testing.T) {
	if ExactRho(64) != 16 {
		t.Errorf("ExactRho(64) = %d, want 16", ExactRho(64))
	}
	if ExactRho(2) != 2 {
		t.Errorf("ExactRho(2) = %d, want 2", ExactRho(2))
	}
}

// TestLasVegasExtension forces a tiny walk length so phases must extend.
func TestLasVegasExtension(t *testing.T) {
	g, err := graph.Path(12)
	if err != nil {
		t.Fatal(err)
	}
	// Walk length 4 is often below the ~rho^2 steps a path walk needs to
	// see rho distinct vertices, so Las Vegas extensions must kick in over
	// a handful of runs.
	totalExt := 0
	for seed := uint64(0); seed < 10; seed++ {
		tree, stats, err := Sample(g, Config{WalkLength: 4, LasVegas: true, Rho: 3}, prng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if !tree.IsSpanningTreeOf(g) {
			t.Fatal("invalid tree")
		}
		totalExt += stats.Extensions
	}
	if totalExt == 0 {
		t.Error("expected at least one Las Vegas extension across 10 runs with a tiny walk length")
	}
}
