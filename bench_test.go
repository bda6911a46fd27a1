package spantree

// One benchmark per experiment of the evaluation suite in
// internal/experiments (the paper is a theory contribution with no measured
// tables; the experiments reproduce its theorems, lemmas, corollaries and
// worked figures, one runner each). Each benchmark reports the headline quantity of its
// experiment via b.ReportMetric (simulated rounds, TV distances, load
// bounds), so `go test -bench=.` regenerates the whole evaluation in
// miniature; `go run ./cmd/experiments -full` prints the full tables.

import (
	"io"
	"testing"

	"repro/internal/clique"
	"repro/internal/doubling"
	"repro/internal/experiments"
	"repro/internal/mm"
	"repro/internal/prng"
)

// BenchmarkE1MainSamplerRounds measures Theorem 1's round scaling and
// reports the fitted exponent (paper: 1/2 + alpha = 0.657 plus polylog).
func BenchmarkE1MainSamplerRounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E1MainSamplerRounds(io.Discard, []int{16, 24, 32, 48}, 1, mm.Fast{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Slope, "exponent")
		b.ReportMetric(res.Rounds[len(res.Rounds)-1], "rounds@n48")
	}
}

// BenchmarkE1Semiring3D is the E1 ablation under the faithful
// Θ(n^(1/3))-round matmul dataflow.
func BenchmarkE1Semiring3D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E1MainSamplerRounds(io.Discard, []int{16, 24, 32, 48}, 1, mm.Semiring3D{})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Slope, "exponent")
	}
}

// BenchmarkE2UniformityTV measures the TV distance of the sampled tree
// distribution from uniform (Theorem 1 / Lemma 6).
func BenchmarkE2UniformityTV(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E2UniformityTV(io.Discard, 2500)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Approx.TV, "tv")
		b.ReportMetric(res.Approx.Noise, "noise")
	}
}

// BenchmarkE3DoublingRounds measures Theorem 2's two round-complexity
// regimes.
func BenchmarkE3DoublingRounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E3DoublingRounds(io.Discard, 64, []int{8, 256, 2048})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Rounds[0]), "rounds@tau8")
		b.ReportMetric(float64(res.Rounds[len(res.Rounds)-1]), "rounds@tau2048")
	}
}

// BenchmarkE4LowCoverTimeTrees measures Corollary 1's sampler on the
// O(n log n) cover-time families.
func BenchmarkE4LowCoverTimeTrees(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E4LowCoverTimeTrees(io.Discard, []int{24, 48})
		if err != nil {
			b.Fatal(err)
		}
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(float64(last.Rounds)/float64(last.WalkSteps), "rounds/step")
	}
}

// BenchmarkE5LoadBalance measures Lemma 10's per-machine tuple bound.
func BenchmarkE5LoadBalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E5LoadBalance(io.Discard, 32)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Balanced), "max-tuples")
		b.ReportMetric(float64(res.Lemma10Bound), "lemma10-bound")
	}
}

// BenchmarkE6Figure2 regenerates the paper's Figure 2 derivative graphs.
func BenchmarkE6Figure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E6Figure2(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		ok := 0.0
		if res.SchurOK && res.ShortcutOK {
			ok = 1
		}
		b.ReportMetric(ok, "figure2-match")
	}
}

// BenchmarkE7MSTStrawmanBias measures the §1.4 strawman's bias.
func BenchmarkE7MSTStrawmanBias(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E7MSTStrawmanBias(io.Discard, 12000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MST.TV, "mst-tv")
		b.ReportMetric(res.Uniform.TV, "wilson-tv")
	}
}

// BenchmarkE8ExactVsApprox measures the appendix variant's round overhead.
func BenchmarkE8ExactVsApprox(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E8ExactVsApprox(io.Discard, []int{16, 32, 64})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Ratio[len(res.Ratio)-1], "exact/approx@n64")
	}
}

// BenchmarkE9NaiveCrossover measures the naive Θ(cover-time) port against
// the phase algorithm on lollipops.
func BenchmarkE9NaiveCrossover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E9NaiveCrossover(io.Discard, []int{16, 24})
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.Sizes) - 1
		b.ReportMetric(res.NaiveRounds[last]/res.PhaseRounds[last], "speedup")
	}
}

// BenchmarkE10PrecisionError measures Lemma 7's truncated-power error.
func BenchmarkE10PrecisionError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E10PrecisionError(io.Discard, 16, 10, 1e-9)
		if err != nil {
			b.Fatal(err)
		}
		under := 0.0
		if res.AllUnder && res.AllSub {
			under = 1
		}
		b.ReportMetric(under, "lemma7-holds")
	}
}

// BenchmarkE11MatchingPlacement measures Lemma 3's placement fidelity.
func BenchmarkE11MatchingPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E11MatchingPlacement(io.Discard, 12000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ExactTV, "exact-tv")
		b.ReportMetric(res.MetropolisTV, "metropolis-tv")
	}
}

// BenchmarkE12Figure1Pipeline regenerates the Figure 1 data flow.
func BenchmarkE12Figure1Pipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.E12Figure1Pipeline(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		valid := 0.0
		if res.TreeValid {
			valid = 1
		}
		b.ReportMetric(valid, "tree-valid")
	}
}

// BenchmarkSamplePhase measures wall-clock simulation throughput of the
// main sampler (not a paper claim; an implementation health metric).
func BenchmarkSamplePhase(b *testing.B) {
	g, err := Expander(32, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sampleWith(b, g, SamplerPhase, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSampleDoubling measures wall-clock throughput of the Corollary 1
// sampler.
func BenchmarkSampleDoubling(b *testing.B) {
	g, err := Expander(32, 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sampleWith(b, g, SamplerLowCover, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChainedWalk4096 measures single-walk construction throughput.
func BenchmarkChainedWalk4096(b *testing.B) {
	g, err := Expander(64, 3)
	if err != nil {
		b.Fatal(err)
	}
	src := prng.New(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := clique.MustNew(64)
		if _, err := doubling.ChainedWalk(sim, g, 0, 4096, doubling.Config{}, src.Split(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
