package mm

import (
	"fmt"

	"repro/internal/clique"
	"repro/internal/matrix"
)

// DyadicTable computes the dyadic power table P, P^2, P^4, ..., P^(2^maxExp)
// on the simulated clique — the paper's Initialization Step (Algorithm 1
// steps 2-3):
//
//	"Using the CongestedClique matrix multiplication algorithm from [17],
//	 every Machine i computes rows P[i,*], P^2[i,*], ..., P^l[i,*].
//	 Every Machine i sends P^k[i,j] to machine j, for all j, k."
//
// Each squaring is delegated to the backend (which charges its rounds), and
// each computed power is followed by the step-3 column redistribution, a
// perfectly balanced all-to-all (every machine sends and receives exactly
// one row/column worth of words) charged via a real superstep.
//
// If delta > 0 every product is truncated down to multiples of delta,
// exactly the round(.) fixed-point discipline of Lemma 7; the returned
// matrices then under-approximate the true powers entrywise by at most the
// lemma's E(k) bound.
//
// fid selects the execution mode of the per-power column redistribution:
// charged (the default) charges the balanced all-to-all analytically, full
// materializes its d² single-word messages. The matrices, the round charges,
// and the trace are identical either way — machine j's "column" is a view
// into the same shared matrix in both modes. The backend's own Mul is not
// affected: the dataflow backends (naive, semiring3d) route real words by
// design regardless of fid.
func DyadicTable(sim *clique.Sim, backend Backend, p *matrix.Matrix, maxExp int, delta float64, fid clique.Fidelity) (*matrix.PowerDyadic, error) {
	if backend == nil {
		return nil, fmt.Errorf("mm: nil backend")
	}
	if p.Rows() != p.Cols() {
		return nil, fmt.Errorf("mm: dyadic table of non-square %dx%d matrix", p.Rows(), p.Cols())
	}
	if maxExp < 0 {
		return nil, fmt.Errorf("mm: negative max exponent %d", maxExp)
	}
	// Every power is drawn from the scratch pool, so a caller done with the
	// table can recycle it with PowerDyadic.Release.
	d := p.Rows()
	pows := make([]*matrix.Matrix, maxExp+1)
	cur := matrix.Scratch(d, d)
	for i := 0; i < d; i++ {
		copy(cur.Row(i), p.Row(i))
	}
	if delta > 0 {
		cur.TruncateDown(delta)
	}
	pows[0] = cur
	var plan *clique.CostPlan // one charged-mode plan serves every power
	if fid.Charged() {
		plan = clique.NewCostPlan(sim.N())
	}
	if err := distributeColumns(sim, cur, plan); err != nil {
		return nil, err
	}
	for e := 1; e <= maxExp; e++ {
		next, err := backend.Mul(sim, cur, cur)
		if err != nil {
			return nil, fmt.Errorf("mm: squaring to exponent 2^%d: %w", e, err)
		}
		if delta > 0 {
			next.TruncateDown(delta)
		}
		pows[e] = next
		cur = next
		if err := distributeColumns(sim, cur, plan); err != nil {
			return nil, err
		}
	}
	return &matrix.PowerDyadic{Pows: pows, Delta: delta}, nil
}

// ReplayDyadicTable charges the communication of DyadicTable for a power
// table that was already computed offline (core.Prepare caches the phase-0
// table per graph so repeated samples skip the numeric squarings). Each
// skipped squaring is charged at the backend's predicted cost and each
// per-power column redistribution as an accounting-only superstep with the
// exact word loads the real all-to-all moves (every machine sends and
// receives one row/column of d words).
//
// The replay is charge-exact only for the Fast backend, whose Mul charges
// precisely CostRounds(d) and computes locally; the dataflow backends run
// real supersteps a charge cannot reproduce, so callers must not replay
// them (core gates its warm path on mm.Fast accordingly).
func ReplayDyadicTable(sim *clique.Sim, backend Backend, pd *matrix.PowerDyadic) error {
	if backend == nil {
		return fmt.Errorf("mm: nil backend")
	}
	if len(pd.Pows) == 0 {
		return fmt.Errorf("mm: replay of empty dyadic table")
	}
	d := pd.Pows[0].Rows()
	words := int64(d) * int64(d)
	if err := sim.ChargeSuperstep("mm/column-distribute", d, words); err != nil {
		return err
	}
	for e := 1; e < len(pd.Pows); e++ {
		if err := sim.ChargeRounds(backend.CostRounds(d), "fast-matmul"); err != nil {
			return err
		}
		if err := sim.ChargeSuperstep("mm/column-distribute", d, words); err != nil {
			return err
		}
	}
	return nil
}

// ChargeSchurShortcutBuild charges the Corollaries 2-3 cost of producing a
// later phase's Schur and shortcut transition matrices: maxExp repeated
// squarings of the 2n-dimensional augmented chain, each at the backend's
// predicted round cost. The phase build pays this immediately before
// building its dyadic table. Like ReplayDyadicTable, the charge-for-real
// equivalence holds only for backends whose Mul charges exactly CostRounds
// (mm.Fast).
func ChargeSchurShortcutBuild(sim *clique.Sim, backend Backend, n, maxExp int) error {
	if backend == nil {
		return fmt.Errorf("mm: nil backend")
	}
	return sim.ChargeRounds(maxExp*backend.CostRounds(2*n), "schur+shortcut")
}

// distributeColumns performs the Algorithm 1 step 3 all-to-all for one
// matrix: machine i sends entry [i,j] to machine j, a balanced exchange of
// one word per ordered machine pair (1 round). After it, machine j holds
// column j in addition to row j — the property Algorithm 2 step 4 relies on
// when machine M_{p,q} asks machine j for P^(δ/2)[p,j] * P^(δ/2)[j,q].
// A non-nil plan selects charged mode, which charges the same exchange from
// its pattern (the column view already lives in the shared matrix); full
// mode routes the d² words.
func distributeColumns(sim *clique.Sim, m *matrix.Matrix, plan *clique.CostPlan) error {
	d := m.Rows()
	if plan != nil {
		plan.Reset()
		plan.AllToAll(d, 1)
		return sim.ChargedSuperstep("mm/column-distribute", plan, nil)
	}
	return sim.Superstep("mm/column-distribute", func(id int, in []clique.Message) ([]clique.Message, error) {
		if id >= d {
			return nil, nil
		}
		row := m.Row(id)
		msgs := make([]clique.Message, 0, d)
		for j := 0; j < d; j++ {
			msgs = append(msgs, clique.Message{To: j, Words: []clique.Word{clique.FloatWord(row[j])}})
		}
		return msgs, nil
	})
}
