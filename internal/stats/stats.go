package stats

import (
	"fmt"
	"math"
	"math/big"
	"sort"
)

// Empirical is an empirical distribution over string-keyed outcomes, e.g.
// canonical encodings of spanning trees.
//
// The zero value is not ready to use; construct with NewEmpirical.
type Empirical struct {
	counts map[string]int
	total  int
}

// NewEmpirical returns an empty empirical distribution.
func NewEmpirical() *Empirical {
	return &Empirical{counts: make(map[string]int)}
}

// Add records one observation of outcome key.
func (e *Empirical) Add(key string) {
	e.counts[key]++
	e.total++
}

// Total reports the number of observations.
func (e *Empirical) Total() int { return e.total }

// Support reports the number of distinct outcomes observed.
func (e *Empirical) Support() int { return len(e.counts) }

// Count returns the number of observations of key.
func (e *Empirical) Count(key string) int { return e.counts[key] }

// Freq returns the empirical frequency of key.
func (e *Empirical) Freq(key string) float64 {
	if e.total == 0 {
		return 0
	}
	return float64(e.counts[key]) / float64(e.total)
}

// TVFromUniform computes the total variation distance between the empirical
// distribution and the uniform distribution over a support of size
// supportSize, which must be >= the observed support. Outcomes never
// observed contribute 1/supportSize each.
//
// TV(P, U) = (1/2) * sum_x |P(x) - 1/supportSize|, evaluated exactly as
// (sum_x |count(x)·S - total| + (S - observed)·total) / (2·total·S) in
// integers, then rounded once. The integer sum does not depend on the
// order of the outcome map, so equal distributions always yield the same
// float64.
func (e *Empirical) TVFromUniform(supportSize int) (float64, error) {
	if supportSize <= 0 {
		return 0, fmt.Errorf("stats: support size must be positive, got %d", supportSize)
	}
	if len(e.counts) > supportSize {
		return 0, fmt.Errorf("stats: observed %d outcomes but claimed support is %d", len(e.counts), supportSize)
	}
	if e.total == 0 {
		return 0, fmt.Errorf("stats: TV of empty empirical distribution")
	}
	size, total := big.NewInt(int64(supportSize)), big.NewInt(int64(e.total))
	num := new(big.Int).Mul(big.NewInt(int64(supportSize-len(e.counts))), total)
	var term big.Int
	for _, c := range e.counts {
		term.Mul(big.NewInt(int64(c)), size)
		term.Sub(&term, total)
		num.Add(num, term.Abs(&term))
	}
	den := new(big.Int).Mul(size, total)
	tv, _ := new(big.Rat).SetFrac(num, den.Lsh(den, 1)).Float64()
	return tv, nil
}

// UniformTVSamplingNoise estimates the expected TV distance between the
// empirical distribution of nSamples i.i.d. draws from a T-outcome uniform
// distribution and that uniform distribution. For multinomial sampling the
// expected L1 deviation per cell is ~ sqrt(2p(1-p)/(pi n)), summed and
// halved. This is the acceptance threshold scale used in uniformity audits:
// a correct sampler's measured TV should land near this value, not at 0.
func UniformTVSamplingNoise(nSamples, supportSize int) float64 {
	if nSamples <= 0 || supportSize <= 0 {
		return 0
	}
	p := 1 / float64(supportSize)
	perCell := math.Sqrt(2 * p * (1 - p) / (math.Pi * float64(nSamples)))
	return float64(supportSize) * perCell / 2
}

// FitPowerLaw fits y = c * x^slope by least squares on (log x, log y) and
// returns the slope and the multiplier c. All inputs must be positive and
// the slices the same non-trivial length.
//
// This is how experiment E1 extracts the empirical round-complexity exponent
// to compare against the paper's 1/2 + alpha.
func FitPowerLaw(xs, ys []float64) (slope, c float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, fmt.Errorf("stats: FitPowerLaw length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, 0, fmt.Errorf("stats: FitPowerLaw needs at least 2 points, got %d", len(xs))
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			return 0, 0, fmt.Errorf("stats: FitPowerLaw needs positive data, got (%g, %g) at %d", xs[i], ys[i], i)
		}
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0, fmt.Errorf("stats: FitPowerLaw with degenerate x values")
	}
	slope = (n*sxy - sx*sy) / den
	c = math.Exp((sy - slope*sx) / n)
	return slope, c, nil
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the median of xs (0 for empty input).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}
