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
	// Machine i keeps the row of B that machine k sent in slot k, so the
	// compute step sums in k order whatever order the rows arrive in.
	rows := make([][]float64, d*d)
	err = clique.Run(sim, &clique.Step[rowMsg]{
		Name: "mm/naive/rows",
		// Machine k sends row B[k] to machines 0..d-1.
		Send: func(o *clique.Out[rowMsg]) error {
			for k := 0; k < d; k++ {
				o.From(k)
				for to := 0; to < d; to++ {
					o.Send(to, d, rowMsg{k, b.Row(k)})
				}
			}
			return nil
		},
		Recv:   func(to int, m rowMsg) { rows[to*d+m.k] = m.row },
		Encode: func(dst []clique.Word, m rowMsg) []clique.Word { return appendFloats(dst, m.row) },
		Decode: func(from int, ws []clique.Word) rowMsg { return rowMsg{from, floats(ws)} },
	})
	if err != nil {
		return nil, err
	}
	// Machine i computes C[i] = A[i] * B.
	out := matrix.MustNew(d, d)
	err = clique.Local(sim, "mm/naive/compute", func() error {
		for i := 0; i < d; i++ {
			ai, ci := a.Row(i), out.Row(i)
			for k, bk := range rows[i*d : (i+1)*d] {
				aik := ai[k]
				if aik == 0 {
					continue
				}
				for j, v := range bk {
					ci[j] += aik * v
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// rowMsg is row k of a matrix in flight. The row index costs no word: a
// row holder sends only its own row, so the receiver knows k from the
// sending machine.
type rowMsg struct {
	k   int
	row []float64
}

// appendFloats packs floats into words appended to dst.
func appendFloats(dst []clique.Word, vs []float64) []clique.Word {
	for _, v := range vs {
		dst = append(dst, clique.FloatWord(v))
	}
	return dst
}

// floats unpacks float words.
func floats(ws []clique.Word) []float64 {
	vs := make([]float64, len(ws))
	for i, w := range ws {
		vs[i] = w.Float()
	}
	return vs
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
	if err := sim.ChargeRounds(RoundsFast(d), clique.ChargeFastMatmul); err != nil {
		return nil, err
	}
	// The product comes from the scratch pool so that short-lived products
	// (a sample's per-phase power tables) can be recycled with Release; a
	// caller that keeps the product simply never releases it. MulInto
	// writes every entry, so the pooled storage is not cleared first.
	out := matrix.ScratchUncleared(d, d)
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
