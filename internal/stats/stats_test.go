package stats

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/prng"
)

func TestEmpiricalBasics(t *testing.T) {
	e := NewEmpirical()
	if e.Total() != 0 || e.Support() != 0 {
		t.Error("fresh empirical distribution not empty")
	}
	e.Add("a")
	e.Add("a")
	e.Add("b")
	if e.Total() != 3 || e.Support() != 2 {
		t.Errorf("total=%d support=%d, want 3, 2", e.Total(), e.Support())
	}
	if e.Count("a") != 2 || e.Count("c") != 0 {
		t.Error("counts wrong")
	}
	if math.Abs(e.Freq("a")-2.0/3) > 1e-12 {
		t.Errorf("Freq(a) = %g, want 2/3", e.Freq("a"))
	}
}

func TestTVFromUniformExact(t *testing.T) {
	e := NewEmpirical()
	// 4 outcomes, observe only two of them, evenly.
	for i := 0; i < 10; i++ {
		e.Add("x")
		e.Add("y")
	}
	// P = (1/2, 1/2, 0, 0), U = (1/4, ...): TV = 1/2*(1/4+1/4+1/4+1/4) = 1/2.
	tv, err := e.TVFromUniform(4)
	if err != nil {
		t.Fatalf("TVFromUniform: %v", err)
	}
	if math.Abs(tv-0.5) > 1e-12 {
		t.Errorf("TV = %g, want 0.5", tv)
	}
}

// TestTVFromUniformOrderIndependent pins that the TV does not depend on the
// outcome map's iteration order: 40 draws over a support of 10 have
// |P(x) - 1/10| terms that are not exact in binary, so a float sum in map
// order lands on 0.2 or 0.19999999999999998 depending on the order.
func TestTVFromUniformOrderIndependent(t *testing.T) {
	e := NewEmpirical()
	for i, c := range []int{4, 5, 4, 8, 2, 4, 2, 7, 3, 1} {
		for j := 0; j < c; j++ {
			e.Add(fmt.Sprintf("t%d", i))
		}
	}
	for i := 0; i < 300; i++ {
		tv, err := e.TVFromUniform(10)
		if err != nil {
			t.Fatal(err)
		}
		if tv != 0.2 {
			t.Fatalf("evaluation %d: TV = %v, want exactly 0.2", i, tv)
		}
	}
}

func TestTVFromUniformPerfect(t *testing.T) {
	e := NewEmpirical()
	for i := 0; i < 5; i++ {
		for j := 0; j < 7; j++ {
			e.Add(fmt.Sprintf("k%d", j))
		}
	}
	tv, err := e.TVFromUniform(7)
	if err != nil || tv > 1e-12 {
		t.Errorf("TV of exactly uniform sample = %g, %v; want 0", tv, err)
	}
}

func TestTVFromUniformErrors(t *testing.T) {
	e := NewEmpirical()
	if _, err := e.TVFromUniform(3); err == nil {
		t.Error("expected error for empty distribution")
	}
	e.Add("a")
	e.Add("b")
	if _, err := e.TVFromUniform(1); err == nil {
		t.Error("expected error when support exceeds claimed size")
	}
	if _, err := e.TVFromUniform(0); err == nil {
		t.Error("expected error for non-positive support")
	}
}

func TestUniformTVSamplingNoiseShrinks(t *testing.T) {
	small := UniformTVSamplingNoise(100, 16)
	large := UniformTVSamplingNoise(100000, 16)
	if !(large < small && large > 0) {
		t.Errorf("noise should shrink with samples: %g then %g", small, large)
	}
	if UniformTVSamplingNoise(0, 16) != 0 {
		t.Error("degenerate inputs should yield 0")
	}
}

func TestUniformTVSamplingNoiseCalibration(t *testing.T) {
	// Simulated uniform sampling should land near the predicted noise level.
	src := prng.New(42)
	const (
		support = 20
		samples = 5000
		reps    = 20
	)
	var measured []float64
	for r := 0; r < reps; r++ {
		e := NewEmpirical()
		for i := 0; i < samples; i++ {
			e.Add(fmt.Sprintf("k%d", src.Intn(support)))
		}
		tv, err := e.TVFromUniform(support)
		if err != nil {
			t.Fatal(err)
		}
		measured = append(measured, tv)
	}
	predicted := UniformTVSamplingNoise(samples, support)
	got := Mean(measured)
	if got > 2*predicted || got < predicted/2 {
		t.Errorf("measured mean TV %g not within factor 2 of predicted noise %g", got, predicted)
	}
}

func TestFitPowerLawExact(t *testing.T) {
	xs := []float64{2, 4, 8, 16, 32}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * math.Pow(x, 1.5)
	}
	slope, c, err := FitPowerLaw(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slope-1.5) > 1e-9 || math.Abs(c-3) > 1e-9 {
		t.Errorf("fit = (%g, %g), want (1.5, 3)", slope, c)
	}
}

func TestFitPowerLawErrors(t *testing.T) {
	if _, _, err := FitPowerLaw([]float64{1}, []float64{1}); err == nil {
		t.Error("expected error for single point")
	}
	if _, _, err := FitPowerLaw([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("expected error for length mismatch")
	}
	if _, _, err := FitPowerLaw([]float64{1, -2}, []float64{1, 2}); err == nil {
		t.Error("expected error for non-positive x")
	}
	if _, _, err := FitPowerLaw([]float64{3, 3}, []float64{1, 2}); err == nil {
		t.Error("expected error for degenerate x")
	}
}

func TestSummaryStats(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 10}
	if Mean(xs) != 4 {
		t.Errorf("Mean = %g, want 4", Mean(xs))
	}
	if Median(xs) != 3 {
		t.Errorf("Median = %g, want 3", Median(xs))
	}
	if Median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Error("even-length median wrong")
	}
	if Mean(nil) != 0 || Median(nil) != 0 {
		t.Error("empty-input stats should be 0")
	}
}
