// Package mm implements matrix multiplication in the simulated congested
// clique. The paper's sampler spends essentially all of its rounds here: the
// Initialization Step of every phase computes the dyadic powers P, P^2, P^4,
// ..., P^l of a transition matrix (Algorithm 1), and the Schur complement
// and shortcut graphs are likewise produced by repeated multiplication
// (§2.4). Matrices follow the model's input convention: machine i holds row
// i (and, after Algorithm 1 step 3, column i) of every matrix.
//
// Three interchangeable backends are provided:
//
//   - Naive: every machine broadcasts its row of B and computes its row of
//     the product locally; Theta(n) rounds. The baseline a straightforward
//     port would use.
//   - Semiring3D: the communication-faithful 3D block algorithm that routes
//     actual words through the simulator in Theta(n^(1/3)) rounds — the
//     semiring bound of Censor-Hillel et al. [17], whose message flow we
//     reproduce superstep by superstep.
//   - Fast: computes the product locally and charges the Õ(n^alpha) round
//     cost (alpha = 0.157) of the fast bilinear algorithm of [17] + [72].
//     Reimplementing Strassen-style bilinear algorithms over the clique is
//     outside the paper's own scope (it cites them as a black box), so this
//     backend reproduces their cost, not their dataflow; see DESIGN.md §5.
//
// # Contract: backend-independent products, replayable charges
//
// All three backends are obligated to yield bit-identical products for the
// same inputs (the numeric kernel is the same sequential float64 code), so
// the sampler's output distribution — in fact its output bytes per seed —
// is backend-independent; only the round accounting changes (ablation E1).
// The Fast backend's builds are additionally replayable: ReplayDyadicTable
// and ChargeSchurShortcutBuild re-apply a build's exact round/word charges
// without redoing the numeric work, which is what lets Prepared's phase-0
// state and the charged simulator keep warm Stats byte-identical to cold.
// The dataflow backends (Naive, Semiring3D) deliberately bypass both the
// phase-0 reuse and charged mode: they exist to route real words.
package mm
