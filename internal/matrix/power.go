package matrix

import (
	"fmt"
	"math"
)

// Pow returns m^k for k >= 0 by repeated squaring (k = 0 yields the
// identity). It returns an error if m is not square or k is negative.
func (m *Matrix) Pow(k int) (*Matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("matrix: Pow on non-square %dx%d matrix", m.rows, m.cols)
	}
	if k < 0 {
		return nil, fmt.Errorf("matrix: Pow with negative exponent %d", k)
	}
	result := Identity(m.rows)
	base := m.Clone()
	for k > 0 {
		if k&1 == 1 {
			r, err := result.Mul(base)
			if err != nil {
				return nil, err
			}
			result = r
		}
		k >>= 1
		if k > 0 {
			b, err := base.Mul(base)
			if err != nil {
				return nil, err
			}
			base = b
		}
	}
	return result, nil
}

// TruncateDown replaces every entry x with the largest multiple of delta not
// exceeding x, i.e. floor(x/delta)*delta. This is the round(.) operation of
// Lemma 7: it introduces only subtractive (negative additive) error of at
// most delta per entry, which is the property the paper's error analysis
// depends on. Transition matrices are non-negative, but a negative entry is
// floored the same way (away from zero, e.g. -0.3 with delta 0.25 becomes
// -0.5), so the error stays subtractive everywhere. It returns m for
// chaining.
func (m *Matrix) TruncateDown(delta float64) *Matrix {
	if delta <= 0 {
		return m
	}
	inv := 1 / delta
	for i, v := range m.data {
		m.data[i] = math.Floor(v*inv) * delta
	}
	return m
}

// PowerDyadic holds the dyadic powers M^1, M^2, M^4, ..., M^L of a square
// matrix, the table the paper's Initialization Step computes (Algorithm 1
// step 2): "Compute P, P^2, P^4, ..., P^l".
type PowerDyadic struct {
	// Pows[i] is M^(2^i), possibly truncated per level.
	Pows []*Matrix
	// Delta is the per-squaring truncation unit used (0 means exact).
	Delta float64
}

// NewPowerDyadic computes the dyadic power table up to exponent maxExp
// (inclusive), so the largest power computed is M^(2^maxExp). If delta > 0,
// every product is truncated down to multiples of delta, modelling the
// O(log(1/delta))-bit fixed-point words of Lemma 7; the resulting matrices
// under-approximate the true powers entrywise.
func NewPowerDyadic(m *Matrix, maxExp int, delta float64) (*PowerDyadic, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("matrix: dyadic powers of non-square %dx%d matrix", m.rows, m.cols)
	}
	if maxExp < 0 {
		return nil, fmt.Errorf("matrix: dyadic powers with negative max exponent %d", maxExp)
	}
	pows := make([]*Matrix, maxExp+1)
	cur := m.Clone()
	if delta > 0 {
		cur.TruncateDown(delta)
	}
	pows[0] = cur
	for e := 1; e <= maxExp; e++ {
		// Powers come from the scratch pool so that short-lived tables (a
		// sample's per-phase power tables) can be recycled with Release; a
		// caller that keeps the table simply never releases it.
		next := Scratch(m.rows, m.cols)
		mulRows(next, cur, cur)
		if delta > 0 {
			next.TruncateDown(delta)
		}
		pows[e] = next
		cur = next
	}
	return &PowerDyadic{Pows: pows, Delta: delta}, nil
}

// NewPowerDyadicWorkers is NewPowerDyadic; the worker count is ignored. It
// stays only because the frozen benchmark harness (bench/trace.go) still
// calls it, and goes with the benchmark's next revision.
func NewPowerDyadicWorkers(m *Matrix, maxExp int, delta float64, _ int) (*PowerDyadic, error) {
	return NewPowerDyadic(m, maxExp, delta)
}

// Release returns every power's storage to the scratch pool. The table must
// not be used afterwards.
func (pd *PowerDyadic) Release() {
	for _, p := range pd.Pows {
		p.Release()
	}
}

// MaxExp reports the largest exponent e such that Power(1<<e) is available.
func (pd *PowerDyadic) MaxExp() int { return len(pd.Pows) - 1 }

// Power returns M^k for a power of two k = 2^e present in the table. It
// returns an error for k that is not a stored dyadic power.
func (pd *PowerDyadic) Power(k int) (*Matrix, error) {
	if k <= 0 || k&(k-1) != 0 {
		return nil, fmt.Errorf("matrix: dyadic table holds only powers of two, asked for %d", k)
	}
	e := 0
	for kk := k; kk > 1; kk >>= 1 {
		e++
	}
	if e >= len(pd.Pows) {
		return nil, fmt.Errorf("matrix: dyadic table holds up to 2^%d, asked for 2^%d", len(pd.Pows)-1, e)
	}
	return pd.Pows[e], nil
}
