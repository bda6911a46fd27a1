package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/clique"
	"repro/internal/doubling"
	"repro/internal/graph"
	"repro/internal/prng"
)

// E3Result holds Theorem 2's round measurements.
type E3Result struct {
	N      int
	Taus   []int
	Rounds []int
}

// E3DoublingRounds measures the rounds to construct a single length-tau
// walk via load-balanced doubling + stitching across a sweep of tau, to
// compare with Theorem 2's two regimes: O(log tau) for tau = O(n/log n)
// and O(tau/n · log tau · log n) beyond.
func E3DoublingRounds(w io.Writer, n int, taus []int) (*E3Result, error) {
	header(w, "E3", fmt.Sprintf("Theorem 2: doubling-walk rounds (n=%d)", n))
	g, err := expander(n, baseSeed)
	if err != nil {
		return nil, err
	}
	res := &E3Result{N: n, Taus: taus}
	fmt.Fprintf(w, "%10s %10s %14s\n", "tau", "rounds", "paper shape")
	for i, tau := range taus {
		sim := clique.MustNew(n)
		if _, err := doubling.ChainedWalk(sim, g, 0, tau, doubling.Config{}, prng.New(uint64(baseSeed+i))); err != nil {
			return nil, err
		}
		res.Rounds = append(res.Rounds, sim.Rounds())
		fmt.Fprintf(w, "%10d %10d %14.0f\n", tau, sim.Rounds(), doubling.PredictedRounds(n, tau))
	}
	return res, nil
}

// E4Result holds Corollary 1's measurements.
type E4Result struct {
	Rows []E4Row
}

// E4Row is one graph family measurement.
type E4Row struct {
	Family    string
	N         int
	Rounds    int
	WalkSteps int
}

// E4LowCoverTimeTrees samples spanning trees with the Corollary 1 sampler
// on the O(n log n) cover-time families the paper names (§1.2): expanders,
// G(n, p) at the connectivity threshold, and K_{n-√n,√n}. The
// rounds-per-walk-step ratio should fall with n (Õ(τ/n) vs Θ(τ)).
func E4LowCoverTimeTrees(w io.Writer, sizes []int) (*E4Result, error) {
	header(w, "E4", "Corollary 1: trees on O(n log n) cover-time graphs")
	res := &E4Result{}
	fmt.Fprintf(w, "%-16s %6s %10s %10s %12s\n", "family", "n", "rounds", "steps", "rounds/step")
	families := []struct {
		name  string
		build func(n int, seed uint64) (*graph.Graph, error)
	}{
		{"expander", expander},
		{"G(n,3ln n/n)", func(n int, seed uint64) (*graph.Graph, error) {
			p := 3 * logf(n) / float64(n)
			return graph.ErdosRenyi(n, p, prng.New(seed))
		}},
		{"K_{n-sqrt,sqrt}", func(n int, seed uint64) (*graph.Graph, error) {
			return graph.UnbalancedBipartite(n)
		}},
	}
	for _, fam := range families {
		for i, n := range sizes {
			g, err := fam.build(n, uint64(baseSeed+i))
			if err != nil {
				return nil, err
			}
			tree, st, err := doubling.SampleTree(g, doubling.TreeConfig{}, prng.New(uint64(baseSeed+7*i)))
			if err != nil {
				return nil, err
			}
			if !tree.IsSpanningTreeOf(g) {
				return nil, fmt.Errorf("experiments: E4 produced an invalid tree")
			}
			res.Rows = append(res.Rows, E4Row{Family: fam.name, N: n, Rounds: st.Rounds, WalkSteps: st.WalkSteps})
			fmt.Fprintf(w, "%-16s %6d %10d %10d %12.3f\n", fam.name, n, st.Rounds, st.WalkSteps, float64(st.Rounds)/float64(st.WalkSteps))
		}
	}
	return res, nil
}

// E5Result holds the Lemma 10 load-balance measurement.
type E5Result struct {
	N               int
	Balanced        int
	Unbalanced      int
	Lemma10Bound    int
	CollapseMaxRecv int // max words received in full doubling (the finding)
}

// E5LoadBalance measures the maximum tuples any machine receives during
// doubling's routing steps on a star graph (the adversarial case for the
// unbalanced algorithm), compares against Lemma 10's 16ck·log n bound, and
// also records the late-iteration load collapse of full doubling (finding
// F1, explained at the top of internal/doubling/chain.go).
func E5LoadBalance(w io.Writer, n int) (*E5Result, error) {
	header(w, "E5", fmt.Sprintf("Lemma 10: routing load balance on a star (n=%d)", n))
	g, err := graph.Star(n)
	if err != nil {
		return nil, err
	}
	tau := n
	run := func(balanced bool) (maxTuples, maxWords int, err error) {
		sim := clique.MustNew(n)
		sim.EnableTrace()
		if _, err := doubling.Walks(sim, g, tau, doubling.Config{Unbalanced: !balanced}, prng.New(baseSeed)); err != nil {
			return 0, 0, err
		}
		for _, st := range sim.Stats() {
			if st.Name != "doubling/route" {
				continue
			}
			if st.MaxRecvMsg > maxTuples {
				maxTuples = st.MaxRecvMsg
			}
			if st.MaxRecv > maxWords {
				maxWords = st.MaxRecv
			}
		}
		return maxTuples, maxWords, nil
	}
	bal, balWords, err := run(true)
	if err != nil {
		return nil, err
	}
	unbal, _, err := run(false)
	if err != nil {
		return nil, err
	}
	bound := doubling.Lemma10Bound(tau, n)
	fmt.Fprintf(w, "%-24s %12s\n", "variant", "max tuples")
	fmt.Fprintf(w, "%-24s %12d\n", "balanced (paper)", bal)
	fmt.Fprintf(w, "%-24s %12d\n", "unbalanced [7]", unbal)
	fmt.Fprintf(w, "%-24s %12d\n", "Lemma 10 bound", bound)
	fmt.Fprintf(w, "full-doubling max received words (finding F1): %d\n", balWords)
	return &E5Result{N: n, Balanced: bal, Unbalanced: unbal, Lemma10Bound: bound, CollapseMaxRecv: balWords}, nil
}

func logf(n int) float64 { return math.Log(float64(n)) }
