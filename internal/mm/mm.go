package mm

import (
	"fmt"
	"math"

	"repro/internal/clique"
	"repro/internal/matrix"
)

// Alpha is the congested clique matrix multiplication exponent
// alpha = 1 - 2/omega from the paper (currently 0.157).
const Alpha = 0.157

// Backend multiplies two square matrices on the simulated clique, charging
// rounds according to its algorithm.
type Backend interface {
	// Name identifies the backend in experiment output.
	Name() string
	// Mul returns a*b, charging rounds on sim. Both matrices must be square,
	// of equal dimension, with dimension at most sim.N().
	Mul(sim *clique.Sim, a, b *matrix.Matrix) (*matrix.Matrix, error)
	// CostRounds predicts the rounds one multiplication at dimension d
	// costs. Components that take the matrix product from the literature
	// as a black box (the Schur complement construction of Corollaries 2-3)
	// charge this via Sim.ChargeRounds instead of routing words.
	CostRounds(d int) int
}

func checkDims(sim *clique.Sim, a, b *matrix.Matrix) (int, error) {
	d := a.Rows()
	if a.Cols() != d || b.Rows() != d || b.Cols() != d {
		return 0, fmt.Errorf("mm: need equal square matrices, got %dx%d and %dx%d",
			a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	if d > sim.N() {
		return 0, fmt.Errorf("mm: matrix dimension %d exceeds clique size %d", d, sim.N())
	}
	return d, nil
}

// Naive is the row-broadcast algorithm: machine i holds rows A[i] and B[i];
// every machine sends its B row to every other machine (n^2 words in and out
// of each machine = n rounds) and then computes its row of the product.
type Naive struct{}

// Name implements Backend.
func (Naive) Name() string { return "naive" }

// CostRounds implements Backend: the row broadcast moves d^2 words through
// every machine, i.e. about d rounds, plus the compute superstep.
func (Naive) CostRounds(d int) int { return d + 1 }

// Mul implements Backend.
func (Naive) Mul(sim *clique.Sim, a, b *matrix.Matrix) (*matrix.Matrix, error) {
	d, err := checkDims(sim, a, b)
	if err != nil {
		return nil, err
	}
	out := matrix.MustNew(d, d)
	// Superstep 1: machine r broadcasts row B[r] to machines 0..d-1.
	err = sim.Superstep("mm/naive/rows", func(id int, in []clique.Message) ([]clique.Message, error) {
		if id >= d {
			return nil, nil
		}
		row := b.Row(id)
		words := make([]clique.Word, d)
		for j, v := range row {
			words[j] = clique.FloatWord(v)
		}
		msgs := make([]clique.Message, 0, d)
		for to := 0; to < d; to++ {
			msgs = append(msgs, clique.Message{To: to, Tag: id, Words: words})
		}
		return msgs, nil
	})
	if err != nil {
		return nil, err
	}
	// Superstep 2: machine i reassembles B and computes C[i] = A[i] * B.
	err = sim.Superstep("mm/naive/compute", func(id int, in []clique.Message) ([]clique.Message, error) {
		if id >= d {
			return nil, nil
		}
		ai := a.Row(id)
		ci := out.Row(id)
		for _, m := range in {
			k := m.Tag
			aik := ai[k]
			if aik == 0 {
				continue
			}
			for j, w := range m.Words {
				ci[j] += aik * w.Float()
			}
		}
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Fast computes the product locally and charges the round cost of the fast
// distributed algorithm: ceil(n^Alpha) rounds per multiplication. The
// polylogarithmic factors hidden in the paper's Õ are normalized to 1, like
// every other constant in the simulator (clique package doc).
type Fast struct{}

// Name implements Backend.
func (Fast) Name() string { return "fast" }

// CostRounds implements Backend.
func (Fast) CostRounds(d int) int { return RoundsFast(d) }

// Mul implements Backend.
func (Fast) Mul(sim *clique.Sim, a, b *matrix.Matrix) (*matrix.Matrix, error) {
	d, err := checkDims(sim, a, b)
	if err != nil {
		return nil, err
	}
	rounds := int(math.Ceil(math.Pow(float64(d), Alpha)))
	if err := sim.ChargeRounds(rounds, "fast-matmul"); err != nil {
		return nil, err
	}
	// The product comes from the scratch pool so that short-lived products
	// (a sample's per-phase power tables) can be recycled with Release; a
	// caller that keeps the product simply never releases it.
	out := matrix.Scratch(d, d)
	if err := matrix.MulInto(out, a, b); err != nil {
		out.Release()
		return nil, err
	}
	return out, nil
}

// RoundsFast predicts the rounds Fast charges for dimension d.
func RoundsFast(d int) int {
	return int(math.Ceil(math.Pow(float64(d), Alpha)))
}
