package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/mm"
	"repro/internal/prng"
	"repro/internal/spanning"
)

// coreSampleForE12 runs one default sampler execution (kept in run.go so
// structure.go stays free of the core dependency cycle concerns).
func coreSampleForE12(g *graph.Graph) (*spanning.Tree, *core.Stats, error) {
	return core.Sample(g, core.Config{WalkLength: 1024, Rho: 2}, prng.New(baseSeed+23))
}

// Suite runs every experiment with CI-sized parameters, writing all tables
// to w. Set full for the larger, full-scale parameterization.
func Suite(w io.Writer, full bool) error {
	e1Sizes := []int{16, 24, 32, 48, 64}
	e1Reps := 2
	e2Samples := 4000
	e3Taus := []int{8, 32, 128, 512, 1024, 2048, 4096}
	e4Sizes := []int{24, 48, 96}
	e8Sizes := []int{16, 32, 64}
	e9Sizes := []int{16, 24, 32}
	e11Trials := 20000
	if full {
		e1Sizes = []int{16, 24, 32, 48, 64, 96, 128}
		e1Reps = 3
		e2Samples = 12000
		e4Sizes = []int{24, 48, 96, 192}
		e8Sizes = []int{16, 32, 64, 128}
		e9Sizes = []int{16, 24, 32, 48}
		e11Trials = 60000
	}

	if _, err := E1MainSamplerRounds(w, e1Sizes, e1Reps, mm.Fast{}); err != nil {
		return fmt.Errorf("E1: %w", err)
	}
	if _, err := E2UniformityTV(w, e2Samples); err != nil {
		return fmt.Errorf("E2: %w", err)
	}
	if _, err := E3DoublingRounds(w, 64, e3Taus); err != nil {
		return fmt.Errorf("E3: %w", err)
	}
	if _, err := E4LowCoverTimeTrees(w, e4Sizes); err != nil {
		return fmt.Errorf("E4: %w", err)
	}
	if _, err := E5LoadBalance(w, 32); err != nil {
		return fmt.Errorf("E5: %w", err)
	}
	if _, err := E6Figure2(w); err != nil {
		return fmt.Errorf("E6: %w", err)
	}
	if _, err := E7MSTStrawmanBias(w, e2Samples); err != nil {
		return fmt.Errorf("E7: %w", err)
	}
	if _, err := E8ExactVsApprox(w, e8Sizes); err != nil {
		return fmt.Errorf("E8: %w", err)
	}
	if _, err := E9NaiveCrossover(w, e9Sizes); err != nil {
		return fmt.Errorf("E9: %w", err)
	}
	if _, err := E10PrecisionError(w, 16, 12, 1e-9); err != nil {
		return fmt.Errorf("E10: %w", err)
	}
	if _, err := E11MatchingPlacement(w, e11Trials); err != nil {
		return fmt.Errorf("E11: %w", err)
	}
	if _, err := E12Figure1Pipeline(w); err != nil {
		return fmt.Errorf("E12: %w", err)
	}
	return nil
}
