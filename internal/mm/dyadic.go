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
// one row/column worth of words) charged from its pattern.
//
// If delta > 0 every product is truncated down to multiples of delta,
// exactly the round(.) fixed-point discipline of Lemma 7; the returned
// matrices then under-approximate the true powers entrywise by at most the
// lemma's E(k) bound.
//
// The redistribution is a CostPlan.AllToAll charge on every simulator:
// machine j's "column" is a view into the shared matrix, so no receiver
// reads a routed payload. The backend's own Mul is unaffected: the dataflow
// backends (naive, semiring3d) declare their real messages by design.
func DyadicTable(sim *clique.Sim, backend Backend, p *matrix.Matrix, maxExp int, delta float64) (*matrix.PowerDyadic, error) {
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
	cur := matrix.ScratchUncleared(d, d) // the copy writes every entry
	for i := 0; i < d; i++ {
		copy(cur.Row(i), p.Row(i))
	}
	if delta > 0 {
		cur.TruncateDown(delta)
	}
	pows[0] = cur
	if err := distributeColumns(sim, cur); err != nil {
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
		if err := distributeColumns(sim, cur); err != nil {
			return nil, err
		}
	}
	return &matrix.PowerDyadic{Pows: pows, Delta: delta}, nil
}

// ReplayDyadicTable charges the communication of DyadicTable for a power
// table that was already computed offline (core.Prepare caches the phase-0
// table per graph so repeated samples skip the numeric squarings). Each
// skipped squaring is charged at the backend's predicted cost and each
// per-power column redistribution through the same all-to-all charge
// DyadicTable uses, so rounds, words and per-step stats come
// out exactly as if the table had been built.
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
	if err := distributeColumns(sim, pd.Pows[0]); err != nil {
		return err
	}
	for e := 1; e < len(pd.Pows); e++ {
		if err := sim.ChargeRounds(backend.CostRounds(d), clique.ChargeFastMatmul); err != nil {
			return err
		}
		if err := distributeColumns(sim, pd.Pows[e]); err != nil {
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
	return sim.ChargeRounds(maxExp*backend.CostRounds(2*n), clique.ChargeSchurShortcut)
}

// distributeColumns charges the Algorithm 1 step 3 all-to-all for one
// matrix: machine i sends entry [i,j] to machine j, a balanced exchange of
// one word per ordered machine pair (1 round). After it, machine j holds
// column j in addition to row j — the property Algorithm 2 step 4 relies on
// when machine M_{p,q} asks machine j for P^(δ/2)[p,j] * P^(δ/2)[j,q]. The
// column is a view into the shared matrix, so the exchange is charged from
// its pattern, on the simulator's own reusable plan, and nothing is routed.
func distributeColumns(sim *clique.Sim, m *matrix.Matrix) error {
	plan := sim.Plan()
	plan.AllToAll(m.Rows(), 1)
	return sim.ChargedSuperstep("mm/column-distribute", plan, nil)
}
