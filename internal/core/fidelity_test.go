package core

import (
	"reflect"
	"testing"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/mm"
	"repro/internal/prng"
	"repro/internal/spanning"
)

// traced runs fn with every sample's simulator built by build and tracing
// its per-superstep stats, and returns the simulator of the last sample.
func traced(build func(int) *clique.Sim, fn func()) *clique.Sim {
	var last *clique.Sim
	prev := newSim
	newSim = func(n int) *clique.Sim {
		last = build(n)
		last.EnableTrace()
		return last
	}
	defer func() { newSim = prev }()
	fn()
	return last
}

// executorRun is one sample's outputs on one executor.
type executorRun struct {
	tree  string
	stats *Stats
	steps []clique.StepStat
}

// onBothExecutors draws one sample with draw on the charged and on the
// materializing executor.
func onBothExecutors(t *testing.T, draw func() (*spanning.Tree, *Stats, error)) (charged, full executorRun) {
	t.Helper()
	run := func(build func(int) *clique.Sim) executorRun {
		var tree *spanning.Tree
		var stats *Stats
		var err error
		sim := traced(build, func() { tree, stats, err = draw() })
		if err != nil {
			t.Fatal(err)
		}
		return executorRun{tree.Encode(), stats, sim.Stats()}
	}
	return run(clique.MustNew), run(clique.NewMaterializing)
}

// checkExecutorsAgree requires the same tree, Stats and per-superstep
// trace from both executors.
func checkExecutorsAgree(t *testing.T, what string, charged, full executorRun) {
	t.Helper()
	if charged.tree != full.tree {
		t.Errorf("%s: trees differ across executors", what)
	}
	if !reflect.DeepEqual(charged.stats, full.stats) {
		t.Errorf("%s: stats differ:\ncharged       %+v\nmaterializing %+v", what, charged.stats, full.stats)
	}
	if !reflect.DeepEqual(charged.steps, full.steps) {
		t.Errorf("%s: per-superstep traces differ (%d vs %d steps)", what, len(charged.steps), len(full.steps))
	}
}

// TestFidelityGolden is the executor contract: for every (family, seed,
// sampler variant), the charged executor must produce the same tree, the
// same Stats — rounds, supersteps, total words, phase shape — and the same
// per-superstep trace as the materializing executor running the same
// protocol declarations.
func TestFidelityGolden(t *testing.T) {
	cases := []struct {
		fam   string
		n     int
		seeds uint64
	}{
		{"expander", 24, 3}, {"er", 24, 3}, {"lollipop", 24, 3}, {"complete", 24, 3},
		{"expander", 40, 1}, {"lollipop", 40, 1},
	}
	for _, c := range cases {
		g, err := graph.FromFamily(c.fam, c.n, prng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= c.seeds; seed++ {
			charged, full := onBothExecutors(t, func() (*spanning.Tree, *Stats, error) {
				return Sample(g, Config{}, prng.New(seed))
			})
			checkExecutorsAgree(t, c.fam+" phase", charged, full)
			charged, full = onBothExecutors(t, func() (*spanning.Tree, *Stats, error) {
				return SampleExact(g, Config{}, prng.New(seed))
			})
			checkExecutorsAgree(t, c.fam+" exact", charged, full)
		}
	}
}

// TestFidelityGoldenNaiveBackend checks the executors also agree under the
// dataflow matmul backends, whose supersteps run on the Sim's own executor
// like the protocol's: Naive's row broadcasts, and Semiring3D's block
// routing on a 3×3×3 cube (n = 27).
func TestFidelityGoldenNaiveBackend(t *testing.T) {
	for _, c := range []struct {
		backend mm.Backend
		n       int
	}{{mm.Naive{}, 16}, {mm.Semiring3D{}, 27}} {
		g, err := graph.FromFamily("expander", c.n, prng.New(5))
		if err != nil {
			t.Fatal(err)
		}
		charged, full := onBothExecutors(t, func() (*spanning.Tree, *Stats, error) {
			return Sample(g, Config{Backend: c.backend}, prng.New(2))
		})
		checkExecutorsAgree(t, c.backend.Name()+" backend", charged, full)
	}
}

// TestFidelityPreparedWith checks the warm path: one Prepared serves the
// same draws, phase-0 table included, on either executor.
func TestFidelityPreparedWith(t *testing.T) {
	g, err := graph.FromFamily("expander", 20, prng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(3); seed <= 4; seed++ {
		charged, full := onBothExecutors(t, func() (*spanning.Tree, *Stats, error) {
			return p.SampleWith(prng.New(seed), SampleOpts{})
		})
		checkExecutorsAgree(t, "prepared", charged, full)
	}
}

// TestFidelityGoldenLasVegas checks the executors agree when phases extend
// their walks (appendix §5.1): the exact variant with walk length 16 on
// 3-regular graphs, where a 16-step walk often sees fewer than ⌊n^(2/3)⌋
// distinct vertices, so later segments start from a walk's endpoint with
// its vertices pre-seen.
func TestFidelityGoldenLasVegas(t *testing.T) {
	for _, n := range []int{32, 48} {
		g, err := graph.RandomRegular(n, 3, prng.New(11).Split(uint64(n)))
		if err != nil {
			t.Fatal(err)
		}
		extensions := 0
		for seed := uint64(1); seed <= 6; seed++ {
			charged, full := onBothExecutors(t, func() (*spanning.Tree, *Stats, error) {
				return SampleExact(g, Config{WalkLength: 16}, prng.New(seed))
			})
			checkExecutorsAgree(t, "las vegas", charged, full)
			extensions += charged.stats.Extensions
		}
		t.Logf("n=%d: %d Las Vegas extensions", n, extensions)
		if extensions == 0 {
			t.Errorf("n=%d: no walk was extended", n)
		}
	}
}
