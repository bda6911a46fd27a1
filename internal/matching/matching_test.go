package matching

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/matrix"
	"repro/internal/prng"
	"repro/internal/stats"
)

// enumerateTarget returns the exact matching distribution keyed by the
// permutation's string form.
func enumerateTarget(w *matrix.Matrix) map[string]float64 {
	k := w.Rows()
	target := make(map[string]float64)
	perm := make([]int, k)
	used := make([]bool, k)
	var total float64
	var rec func(i int, prod float64)
	rec = func(i int, prod float64) {
		if i == k {
			target[fmt.Sprint(perm)] += prod
			total += prod
			return
		}
		for j := 0; j < k; j++ {
			if used[j] || w.At(i, j) == 0 {
				continue
			}
			used[j] = true
			perm[i] = j
			rec(i+1, prod*w.At(i, j))
			used[j] = false
		}
	}
	rec(0, 1)
	for key := range target {
		target[key] /= total
	}
	return target
}

func randomInstance(k int, zeros int, src *prng.Source) *matrix.Matrix {
	w := matrix.MustNew(k, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			w.Set(i, j, 0.2+src.Float64())
		}
	}
	// Identity diagonal keeps at least one positive matching after zeroing.
	for z := 0; z < zeros; z++ {
		i, j := src.Intn(k), src.Intn(k)
		if i != j {
			w.Set(i, j, 0)
		}
	}
	return w
}

func sampleTV(t *testing.T, s Sampler, w *matrix.Matrix, trials int, seed uint64) float64 {
	t.Helper()
	target := enumerateTarget(w)
	src := prng.New(seed)
	emp := stats.NewEmpirical()
	for i := 0; i < trials; i++ {
		perm, err := s.Sample(w, src)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		emp.Add(fmt.Sprint(perm))
	}
	var tv float64
	for key, p := range target {
		tv += math.Abs(emp.Freq(key) - p)
	}
	// Any sampled permutation outside the support is pure error.
	outside := 1.0
	for key := range target {
		outside -= emp.Freq(key)
	}
	if outside > 1e-12 {
		tv += outside
	}
	return tv / 2
}

func TestExactMatchesEnumeration(t *testing.T) {
	src := prng.New(3)
	for trial := 0; trial < 3; trial++ {
		k := 3 + trial
		w := randomInstance(k, trial, src)
		tv := sampleTV(t, Exact{}, w, 40000, uint64(100+trial))
		if tv > 0.02 {
			t.Errorf("k=%d: exact sampler TV from target %.4f", k, tv)
		}
	}
}

func TestMetropolisMatchesEnumeration(t *testing.T) {
	src := prng.New(5)
	w := randomInstance(4, 2, src)
	tv := sampleTV(t, Metropolis{}, w, 30000, 200)
	if tv > 0.03 {
		t.Errorf("metropolis TV from target %.4f", tv)
	}
}

func TestMetropolisMatchesExactLargerInstance(t *testing.T) {
	// On a k=6 instance the full 720-permutation empirical TV is dominated
	// by sampling noise, so compare a low-dimensional marginal — the column
	// matched to row 0 — against its exactly enumerated distribution.
	src := prng.New(7)
	k := 6
	w := randomInstance(k, 4, src)
	target := enumerateTarget(w)
	wantMarginal := make([]float64, k)
	for key, p := range target {
		var p0 int
		if _, err := fmt.Sscanf(key, "[%d", &p0); err != nil {
			t.Fatalf("cannot parse key %q: %v", key, err)
		}
		wantMarginal[p0] += p
	}
	const trials = 30000
	counts := make([]int, k)
	srcM := prng.New(13)
	for i := 0; i < trials; i++ {
		pm, err := (Metropolis{}).Sample(w, srcM)
		if err != nil {
			t.Fatal(err)
		}
		counts[pm[0]]++
	}
	for j := 0; j < k; j++ {
		got := float64(counts[j]) / trials
		if math.Abs(got-wantMarginal[j]) > 0.012 {
			t.Errorf("P(perm[0]=%d): metropolis %.4f vs exact %.4f", j, got, wantMarginal[j])
		}
	}
}

func TestUniformWeightsGiveUniformMatchings(t *testing.T) {
	// All-ones weights: every permutation equally likely (k! = 24).
	w := matrix.MustNew(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			w.Set(i, j, 1)
		}
	}
	src := prng.New(17)
	emp := stats.NewEmpirical()
	const trials = 48000
	for i := 0; i < trials; i++ {
		perm, err := (Exact{}).Sample(w, src)
		if err != nil {
			t.Fatal(err)
		}
		emp.Add(fmt.Sprint(perm))
	}
	tv, err := emp.TVFromUniform(24)
	if err != nil {
		t.Fatal(err)
	}
	noise := stats.UniformTVSamplingNoise(trials, 24)
	if tv > 3*noise {
		t.Errorf("TV from uniform %.4f exceeds 3x sampling noise %.4f", tv, noise)
	}
}

func TestForcedMatching(t *testing.T) {
	// Permutation matrix weights: only one matching has positive weight.
	w := matrix.MustNew(3, 3)
	w.Set(0, 2, 5)
	w.Set(1, 0, 1)
	w.Set(2, 1, 2)
	for _, s := range []Sampler{Exact{}, Metropolis{}, Auto{}} {
		src := prng.New(19)
		for i := 0; i < 20; i++ {
			perm, err := s.Sample(w, src)
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			if perm[0] != 2 || perm[1] != 0 || perm[2] != 1 {
				t.Fatalf("%s: sampled %v, only [2 0 1] is feasible", s.Name(), perm)
			}
		}
	}
}

// TestExactNegativeRyserMinor: column 2 is zero below row 0, so row 0 must
// take column 2 and the (0,3) minor, which keeps that zero column, is exactly
// 0. Ryser's inclusion-exclusion rounds it to about -1e-9, below the
// permanent's own residue clamp; the sampler must treat it as 0 rather than
// fail on a negative weight.
func TestExactNegativeRyserMinor(t *testing.T) {
	w, err := matrix.FromRows([][]float64{
		{52.8, 85.2, 3.7, 32.3},
		{68.9, 91.5, 0, 18.7},
		{97, 97.9, 0, 40.9},
		{93.7, 91.6, 0, 81.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m, err := matrix.PermanentMinor(w, 0, 3); err != nil || m >= 0 {
		t.Fatalf("premise: Ryser minor (0,3) = %g, %v; want a negative rounding residue", m, err)
	}
	src := prng.New(5)
	for i := 0; i < 20; i++ {
		perm, err := (Exact{}).Sample(w, src)
		if err != nil {
			t.Fatal(err)
		}
		if perm[0] != 2 {
			t.Fatalf("sampled %v, row 0 can only take column 2", perm)
		}
	}
}

func TestInfeasibleInstance(t *testing.T) {
	// A zero row: no perfect matching.
	w := matrix.MustNew(3, 3)
	w.Set(0, 0, 1)
	w.Set(1, 0, 1)
	// row 2 all zero
	src := prng.New(23)
	if _, err := (Exact{}).Sample(w, src); err == nil {
		t.Error("exact: expected error for infeasible instance")
	}
	if _, err := (Metropolis{}).Sample(w, src); err == nil {
		t.Error("metropolis: expected error for infeasible instance")
	}
}

func TestInstanceValidation(t *testing.T) {
	src := prng.New(1)
	rect := matrix.MustNew(2, 3)
	if _, err := (Exact{}).Sample(rect, src); err == nil {
		t.Error("expected error for non-square instance")
	}
	neg := matrix.MustNew(2, 2)
	neg.Set(0, 0, -1)
	if _, err := (Metropolis{}).Sample(neg, src); err == nil {
		t.Error("expected error for negative weight")
	}
	nan := matrix.MustNew(2, 2)
	nan.Set(0, 0, math.NaN())
	if _, err := (Exact{}).Sample(nan, src); err == nil {
		t.Error("expected error for NaN weight")
	}
	big := matrix.MustNew(matrix.MaxPermanentDim+1, matrix.MaxPermanentDim+1)
	if _, err := (Exact{}).Sample(big, src); err == nil {
		t.Error("expected error for oversized exact instance")
	}
}

func TestSingletonAndEmpty(t *testing.T) {
	src := prng.New(2)
	one := matrix.MustNew(1, 1)
	one.Set(0, 0, 3)
	for _, s := range []Sampler{Exact{}, Metropolis{}, Auto{}} {
		perm, err := s.Sample(one, src)
		if err != nil || len(perm) != 1 || perm[0] != 0 {
			t.Errorf("%s singleton = %v, %v", s.Name(), perm, err)
		}
	}
}

func TestAutoDispatch(t *testing.T) {
	src := prng.New(31)
	// Small instance: Auto must be exact (use a forced instance to verify
	// deterministically).
	w := matrix.MustNew(2, 2)
	w.Set(0, 1, 1)
	w.Set(1, 0, 1)
	perm, err := (Auto{}).Sample(w, src)
	if err != nil || perm[0] != 1 {
		t.Errorf("auto small = %v, %v", perm, err)
	}
	// Large instance: must not hit the permanent limit.
	k := matrix.MaxPermanentDim + 4
	big := matrix.MustNew(k, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			big.Set(i, j, 1)
		}
	}
	if _, err := (Auto{}).Sample(big, src); err != nil {
		t.Errorf("auto large: %v", err)
	}
}

func TestMatchingWeight(t *testing.T) {
	w := matrix.MustNew(2, 2)
	w.Set(0, 0, 2)
	w.Set(0, 1, 3)
	w.Set(1, 0, 5)
	w.Set(1, 1, 7)
	got, err := MatchingWeight(w, []int{1, 0})
	if err != nil || got != 15 {
		t.Errorf("weight = %g, %v; want 15", got, err)
	}
	if _, err := MatchingWeight(w, []int{0, 0}); err == nil {
		t.Error("expected error for non-permutation")
	}
	if _, err := MatchingWeight(w, []int{0}); err == nil {
		t.Error("expected error for short permutation")
	}
}

func BenchmarkExactSample8(b *testing.B) {
	src := prng.New(1)
	w := randomInstance(8, 0, src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Exact{}).Sample(w, src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMetropolisSample32(b *testing.B) {
	src := prng.New(2)
	w := randomInstance(32, 0, src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Metropolis{}).Sample(w, src); err != nil {
			b.Fatal(err)
		}
	}
}
