package experiments

import (
	"io"
	"strings"
	"testing"

	"repro/internal/mm"
)

// The experiment runners are exercised here at miniature scale: assertions
// target the claims' direction (orderings, bounds, matches) rather than
// asymptotic magnitudes, which only the full runs (experiments -full)
// resolve.

func TestE1SmallSweep(t *testing.T) {
	var sb strings.Builder
	res, err := E1MainSamplerRounds(&sb, []int{12, 16, 24}, 1, mm.Fast{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 3 {
		t.Fatalf("expected 3 measurements, got %d", len(res.Rounds))
	}
	if res.Rounds[2] <= res.Rounds[0] {
		t.Errorf("rounds should grow with n: %v", res.Rounds)
	}
	if !strings.Contains(sb.String(), "fitted exponent") {
		t.Error("output missing the exponent line")
	}
}

func TestE2SmallAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("distribution audit is expensive")
	}
	res, err := E2UniformityTV(io.Discard, 2500)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Approx.Pass(4) || !res.Exact.Pass(4) {
		t.Errorf("audits failed: approx TV %.4f, exact TV %.4f (noise %.4f)",
			res.Approx.TV, res.Exact.TV, res.Approx.Noise)
	}
}

func TestE3Shape(t *testing.T) {
	res, err := E3DoublingRounds(io.Discard, 32, []int{8, 512})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds[1] <= res.Rounds[0] {
		t.Errorf("rounds should grow with tau: %v", res.Rounds)
	}
}

func TestE4RunsAllFamilies(t *testing.T) {
	res, err := E4LowCoverTimeTrees(io.Discard, []int{24})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("expected 3 family rows, got %d", len(res.Rows))
	}
}

func TestE5BoundHolds(t *testing.T) {
	res, err := E5LoadBalance(io.Discard, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Balanced > res.Lemma10Bound {
		t.Errorf("balanced load %d exceeds Lemma 10 bound %d", res.Balanced, res.Lemma10Bound)
	}
	if res.Unbalanced <= res.Balanced {
		t.Errorf("unbalanced load %d should exceed balanced %d on a star", res.Unbalanced, res.Balanced)
	}
}

func TestE6Matches(t *testing.T) {
	res, err := E6Figure2(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.SchurOK || !res.ShortcutOK {
		t.Errorf("Figure 2 mismatch: schur=%v shortcut=%v", res.SchurOK, res.ShortcutOK)
	}
}

func TestE7StrawmanFailsUniformPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("distribution audit is expensive")
	}
	res, err := E7MSTStrawmanBias(io.Discard, 16000)
	if err != nil {
		t.Fatal(err)
	}
	if res.MST.Pass(3) {
		t.Errorf("MST strawman unexpectedly passed: TV %.4f noise %.4f", res.MST.TV, res.MST.Noise)
	}
	if !res.Uniform.Pass(3) {
		t.Errorf("Wilson baseline failed: TV %.4f noise %.4f", res.Uniform.TV, res.Uniform.Noise)
	}
}

func TestE8Runs(t *testing.T) {
	res, err := E8ExactVsApprox(io.Discard, []int{12, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ratio) != 2 || res.Ratio[0] <= 0 {
		t.Errorf("bad ratios %v", res.Ratio)
	}
}

func TestE9NaiveLosesEventually(t *testing.T) {
	res, err := E9NaiveCrossover(io.Discard, []int{12, 32})
	if err != nil {
		t.Fatal(err)
	}
	// The naive/phase ratio must improve (grow) with n.
	if res.NaiveRounds[1]/res.PhaseRounds[1] <= res.NaiveRounds[0]/res.PhaseRounds[0] {
		t.Errorf("crossover trend absent: %v vs %v", res.NaiveRounds, res.PhaseRounds)
	}
}

func TestE10Holds(t *testing.T) {
	res, err := E10PrecisionError(io.Discard, 10, 8, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllSub || !res.AllUnder {
		t.Errorf("Lemma 7 violated: subtractive=%v under-bound=%v", res.AllSub, res.AllUnder)
	}
}

func TestE11BothSamplersClose(t *testing.T) {
	res, err := E11MatchingPlacement(io.Discard, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExactTV > 0.03 || res.MetropolisTV > 0.05 {
		t.Errorf("placement TVs too large: exact %.4f metropolis %.4f", res.ExactTV, res.MetropolisTV)
	}
}

func TestE12PipelineValid(t *testing.T) {
	res, err := E12Figure1Pipeline(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TreeValid || res.Phases < 1 || res.Levels < 1 {
		t.Errorf("pipeline degenerate: %+v", res)
	}
}
