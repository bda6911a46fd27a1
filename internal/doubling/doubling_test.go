package doubling

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/clique"
	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/spanning"
	"repro/internal/walk"
)

func TestWalksValid(t *testing.T) {
	src := prng.New(1)
	g, err := graph.ErdosRenyi(24, 0.3, src)
	if err != nil {
		t.Fatal(err)
	}
	sim := clique.MustNew(24)
	res, err := Walks(sim, g, 37, Config{}, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Walks) != 24 {
		t.Fatalf("%d walks, want 24", len(res.Walks))
	}
	for v, w := range res.Walks {
		if len(w) != 38 {
			t.Fatalf("walk %d has %d vertices, want 38", v, len(w))
		}
		if w[0] != v {
			t.Fatalf("walk %d starts at %d", v, w[0])
		}
		for i := 1; i < len(w); i++ {
			if !g.HasEdge(w[i-1], w[i]) {
				t.Fatalf("walk %d uses non-edge %d-%d", v, w[i-1], w[i])
			}
		}
	}
	if sim.Rounds() <= 0 {
		t.Error("no rounds charged")
	}
}

func TestWalksValidation(t *testing.T) {
	src := prng.New(2)
	g, err := graph.Path(4)
	if err != nil {
		t.Fatal(err)
	}
	sim := clique.MustNew(4)
	if _, err := Walks(sim, g, 0, Config{}, src); err == nil {
		t.Error("expected error for tau=0")
	}
	if _, err := Walks(clique.MustNew(5), g, 4, Config{}, src); err == nil {
		t.Error("expected error for clique/graph size mismatch")
	}
	disc := graph.MustNew(4)
	if err := disc.AddUnitEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := disc.AddUnitEdge(2, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := Walks(clique.MustNew(4), disc, 4, Config{}, src); err == nil {
		t.Error("expected error for disconnected graph")
	}
}

// TestWalkDistribution checks each produced walk is a true random walk:
// the trajectory distribution of machine 0's walk matches direct
// simulation.
func TestWalkDistribution(t *testing.T) {
	g, err := graph.Cycle(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddUnitEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	const (
		tau    = 4
		trials = 30000
	)
	emp := make(map[string]int)
	direct := make(map[string]int)
	src := prng.New(3)
	dsrc := prng.New(4)
	for i := 0; i < trials; i++ {
		sim := clique.MustNew(4)
		res, err := Walks(sim, g, tau, Config{}, src.Split(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		emp[fmt.Sprint(res.Walks[0])]++
		dw, err := walk.Walk(g, 0, tau, dsrc)
		if err != nil {
			t.Fatal(err)
		}
		direct[fmt.Sprint(dw)]++
	}
	tv, err := tvDistance(emp, direct)
	if err != nil {
		t.Fatal(err)
	}
	if tv > 0.03 {
		t.Errorf("doubling walk TV from direct simulation = %.4f", tv)
	}
}

// TestLemma10LoadBalance measures the maximum tuples received by any
// machine during routing supersteps on a star graph — the adversarial case
// where every walk endpoint is the hub — and checks Lemma 10's
// 16ck·log n bound. The unbalanced variant must violate the bound's shape
// by concentrating everything on the hub.
func TestLemma10LoadBalance(t *testing.T) {
	n := 32
	g, err := graph.Star(n)
	if err != nil {
		t.Fatal(err)
	}
	tau := n // k = 32 initial walks per machine
	maxTuples := func(balanced bool) int {
		sim := clique.MustNew(n)
		sim.EnableTrace()
		_, err := Walks(sim, g, tau, Config{Unbalanced: !balanced}, prng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		worst := 0
		for _, st := range sim.Stats() {
			if st.Name == "doubling/route" && st.MaxRecvMsg > worst {
				worst = st.MaxRecvMsg
			}
		}
		return worst
	}
	balanced := maxTuples(true)
	unbalanced := maxTuples(false)
	bound := Lemma10Bound(tau, n)
	t.Logf("E5: balanced max tuples %d, unbalanced %d, Lemma 10 bound %d", balanced, unbalanced, bound)
	if balanced > bound {
		t.Errorf("balanced routing exceeded Lemma 10 bound: %d > %d", balanced, bound)
	}
	if unbalanced <= balanced {
		t.Errorf("unbalanced routing (%d) should concentrate more tuples than balanced (%d) on a star", unbalanced, balanced)
	}
}

// TestTheorem2RoundShape: single-walk construction rounds grow roughly
// linearly in tau for tau >> n and stay polylogarithmic for small tau.
func TestTheorem2RoundShape(t *testing.T) {
	src := prng.New(9)
	n := 64
	g, err := graph.Expander(n, src)
	if err != nil {
		t.Fatal(err)
	}
	rounds := func(tau int) int {
		sim := clique.MustNew(n)
		if _, err := ChainedWalk(sim, g, 0, tau, Config{}, src.Split(uint64(tau))); err != nil {
			t.Fatal(err)
		}
		return sim.Rounds()
	}
	small := rounds(8) // tau << n/log n
	big := rounds(16 * n)
	bigger := rounds(32 * n)
	t.Logf("E3: rounds(8)=%d rounds(16n)=%d rounds(32n)=%d", small, big, bigger)
	if small > 20*intLog2Ceil(n) {
		t.Errorf("short-walk rounds %d not polylogarithmic (n=%d)", small, n)
	}
	ratio := float64(bigger) / float64(big)
	if ratio < 1.4 || ratio > 3.0 {
		t.Errorf("doubling tau should roughly double rounds in the linear regime, ratio = %.2f", ratio)
	}
}

// TestChainedWalkValidAndDistribution: the stitched walk is a valid
// trajectory with the right distribution.
func TestChainedWalkValidAndDistribution(t *testing.T) {
	g, err := graph.Cycle(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddUnitEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	const (
		tau    = 6
		trials = 30000
	)
	emp := make(map[string]int)
	direct := make(map[string]int)
	src := prng.New(21)
	dsrc := prng.New(22)
	for i := 0; i < trials; i++ {
		sim := clique.MustNew(4)
		traj, err := ChainedWalk(sim, g, 0, tau, Config{}, src.Split(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if len(traj) != tau+1 || traj[0] != 0 {
			t.Fatalf("bad trajectory %v", traj)
		}
		for j := 1; j < len(traj); j++ {
			if !g.HasEdge(traj[j-1], traj[j]) {
				t.Fatalf("non-edge in chained walk %v", traj)
			}
		}
		emp[fmt.Sprint(traj)]++
		dw, err := walk.Walk(g, 0, tau, dsrc)
		if err != nil {
			t.Fatal(err)
		}
		direct[fmt.Sprint(dw)]++
	}
	tv, err := tvDistance(emp, direct)
	if err != nil {
		t.Fatal(err)
	}
	// Full-trajectory support is ~300 outcomes; two-empirical noise at 30k
	// samples is ~0.055, so the full TV check is loose. The endpoint
	// marginal check below is the sharp one.
	if tv > 0.09 {
		t.Errorf("chained walk TV from direct simulation = %.4f", tv)
	}
	p, err := g.TransitionMatrix()
	if err != nil {
		t.Fatal(err)
	}
	p6, err := p.Pow(tau)
	if err != nil {
		t.Fatal(err)
	}
	endCounts := make([]int, 4)
	src2 := prng.New(31)
	for i := 0; i < trials; i++ {
		sim := clique.MustNew(4)
		traj, err := ChainedWalk(sim, g, 0, tau, Config{}, src2.Split(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		endCounts[traj[tau]]++
	}
	for v := 0; v < 4; v++ {
		got := float64(endCounts[v]) / trials
		want := p6.At(0, v)
		if d := got - want; d > 0.01 || d < -0.01 {
			t.Errorf("endpoint %d: chained frequency %.4f vs exact P^%d %.4f", v, got, tau, want)
		}
	}
}

func TestChainedWalkValidation(t *testing.T) {
	src := prng.New(23)
	g, err := graph.Path(4)
	if err != nil {
		t.Fatal(err)
	}
	sim := clique.MustNew(4)
	if _, err := ChainedWalk(sim, g, -1, 4, Config{}, src); err == nil {
		t.Error("expected error for bad start")
	}
	if _, err := ChainedWalk(sim, g, 0, 0, Config{}, src); err == nil {
		t.Error("expected error for tau=0")
	}
	if _, err := ChainedWalk(clique.MustNew(5), g, 0, 4, Config{}, src); err == nil {
		t.Error("expected error for size mismatch")
	}
}

// TestWalkBudget: a walk whose doubling state exceeds MaxWalkSlots is
// refused before anything is allocated, including lengths near math.MaxInt
// whose rounding up to a power of two would overflow.
func TestWalkBudget(t *testing.T) {
	g, err := graph.Cycle(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, tau := range []int{MaxWalkSlots/8 + 1, 2000000000, 1<<62 + 1, math.MaxInt} {
		if _, err := ChainedWalk(clique.MustNew(8), g, 0, tau, Config{}, prng.New(1)); err == nil {
			t.Errorf("ChainedWalk tau=%d: over-budget walk accepted", tau)
		}
		if _, err := Walks(clique.MustNew(8), g, tau, Config{}, prng.New(1)); err == nil {
			t.Errorf("Walks tau=%d: over-budget walk accepted", tau)
		}
		if err := CheckSegmentLength(8, tau); err == nil {
			t.Errorf("CheckSegmentLength(8, %d) accepted", tau)
		}
	}
	for _, tc := range []struct{ n, l int }{{8, MaxWalkSlots / 8}, {8, 1}, {256, 0}} {
		if err := CheckSegmentLength(tc.n, tc.l); err != nil {
			t.Errorf("CheckSegmentLength(%d, %d): %v", tc.n, tc.l, err)
		}
	}
	if err := CheckSegmentLength(257, 0); err == nil {
		t.Error("default segment length at n=257 accepted")
	}
}

func TestSampleTreeValid(t *testing.T) {
	src := prng.New(11)
	g, err := graph.Expander(20, src)
	if err != nil {
		t.Fatal(err)
	}
	tree, st, err := SampleTree(g, TreeConfig{}, src)
	if err != nil {
		t.Fatal(err)
	}
	if !tree.IsSpanningTreeOf(g) {
		t.Error("not a spanning tree")
	}
	if st.Rounds <= 0 || st.WalkSteps <= 0 || st.Segments < 1 {
		t.Errorf("degenerate stats %+v", st)
	}
}

// TestZeroTreeConfigIsBalanced: the zero TreeConfig must run the paper's
// hash-balanced routing. On a 64-vertex star (every walk ends at the hub)
// the zero config must report exactly the Stats explicit balanced routing
// charged before the routing flag's zero value was made the paper's mode;
// the unbalanced mode must build the same walk and charge more rounds.
func TestZeroTreeConfigIsBalanced(t *testing.T) {
	g, err := graph.Star(64)
	if err != nil {
		t.Fatal(err)
	}
	tree, st, err := SampleTree(g, TreeConfig{}, prng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	want := TreeStats{Rounds: 2287, Supersteps: 44, TotalWords: 3298310, Segments: 1, WalkSteps: 1536}
	if *st != want {
		t.Errorf("zero TreeConfig stats %+v, want balanced routing's %+v", *st, want)
	}
	utree, ust, err := SampleTree(g, TreeConfig{Doubling: Config{Unbalanced: true}}, prng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if utree.Encode() != tree.Encode() || ust.WalkSteps != st.WalkSteps {
		t.Error("unbalanced routing built a different walk")
	}
	if ust.Rounds <= st.Rounds {
		t.Errorf("unbalanced routing charged %d rounds, balanced %d; want more on a star", ust.Rounds, st.Rounds)
	}
	// Off the star, where the tree is not forced, the modes still agree.
	h, err := graph.Expander(20, prng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 4; seed++ {
		b, _, err := SampleTree(h, TreeConfig{}, prng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		u, _, err := SampleTree(h, TreeConfig{Doubling: Config{Unbalanced: true}}, prng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if b.Encode() != u.Encode() {
			t.Errorf("seed %d: routing modes sampled different trees", seed)
		}
	}
}

// TestSampleTreeUniform audits Corollary 1's sampler for exact uniformity
// on a small graph (it is Aldous-Broder on a true random walk, so it must
// pass the same audit as the sequential baseline).
func TestSampleTreeUniform(t *testing.T) {
	if testing.Short() {
		t.Skip("distribution audit is expensive")
	}
	g, err := graph.Cycle(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AddUnitEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	src := prng.New(13)
	seed := uint64(0)
	res, err := spanning.Audit(g, 6000, func() (*spanning.Tree, error) {
		seed++
		tree, _, err := SampleTree(g, TreeConfig{}, src.Split(seed))
		return tree, err
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Corollary 1 audit: TV=%.4f noise=%.4f", res.TV, res.Noise)
	if !res.Pass(3) {
		t.Errorf("doubling tree audit failed: TV %.4f vs noise %.4f", res.TV, res.Noise)
	}
}

// TestCorollary1RoundsPolylogOnExpanders: for O(n log n)-cover-time graphs
// the sampler's rounds-per-walk-step ratio must shrink as n grows — the
// Õ(τ/n) vs Θ(τ) separation of Corollary 1. At the corollary's own
// τ = Θ(n log n) the win over one-step-per-round is Θ(n / (log n · log τ)),
// so the crossover sits around n in the low hundreds; the unit test asserts
// the monotone trend and the experiment suite reports absolute numbers.
func TestCorollary1RoundsPolylogOnExpanders(t *testing.T) {
	src := prng.New(15)
	ratio := func(n int) float64 {
		g, err := graph.Expander(n, src)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := SampleTree(g, TreeConfig{}, src.Split(uint64(n)))
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("E4: n=%d rounds=%d walkSteps=%d ratio=%.3f", n, st.Rounds, st.WalkSteps, float64(st.Rounds)/float64(st.WalkSteps))
		return float64(st.Rounds) / float64(st.WalkSteps)
	}
	small := ratio(24)
	large := ratio(96)
	if large >= small {
		t.Errorf("rounds-per-step ratio should shrink with n: %.3f at n=24 vs %.3f at n=96", small, large)
	}
}

func TestPredictedRoundsShape(t *testing.T) {
	// Monotone in tau; knee at tau ~ n.
	n := 256
	if PredictedRounds(n, 16) > PredictedRounds(n, 16*n) {
		t.Error("predicted rounds should grow with tau")
	}
	if PredictedRounds(n, 8) > 3*math.Log2(float64(n)) {
		t.Error("short-walk prediction should be polylog")
	}
}

func TestLemma10Bound(t *testing.T) {
	if Lemma10Bound(4, 16) != 16*4*4 {
		t.Errorf("Lemma10Bound(4,16) = %d", Lemma10Bound(4, 16))
	}
}

func TestUnbalancedStillCorrect(t *testing.T) {
	// The unbalanced variant is slower but must still build valid walks.
	src := prng.New(17)
	g, err := graph.Star(8)
	if err != nil {
		t.Fatal(err)
	}
	sim := clique.MustNew(8)
	res, err := Walks(sim, g, 8, Config{Unbalanced: true}, src)
	if err != nil {
		t.Fatal(err)
	}
	for v, w := range res.Walks {
		if w[0] != v || len(w) != 9 {
			t.Fatalf("walk %d malformed", v)
		}
	}
}
