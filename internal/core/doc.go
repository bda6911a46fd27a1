// Package core implements the paper's main contribution: the phase-based
// congested clique algorithm that samples an approximately uniform spanning
// tree in Õ(n^(1/2+α)) simulated rounds (Theorem 1), together with the
// exact Õ(n^(2/3+α)) variant of the appendix.
//
// Each phase extends an Aldous-Broder walk by ρ = ⌊√n⌋ distinct vertices
// while skipping everything visited in earlier phases, by walking on the
// Schur complement graph (§2.2). Within a phase the walk is built top-down,
// level by level (Outline 3): the leader requests midpoints from designated
// pair machines (Algorithm 2), locates the truncation point by distributed
// binary search (Algorithm 3), collects only the compressed multiset of
// midpoints, and re-places them by sampling a weighted perfect matching
// (Lemma 3). First-visit edges in G are recovered from the shortcut graph
// by Bayes' rule (Algorithm 4).
//
// Each protocol superstep is declared once (protocol.go) and runs on the
// clique simulator's charged executor, which counts every declared message
// into the round accounting as it is sent, so the reported round counts are
// the loads the paper's accounting charges; see the clique package
// documentation for the cost model and for the materializing executor the
// tests check it against (through the newSim hook).
//
// The truncation search (Algorithm 3) is the exception to one call per
// message: it tests O(log l) candidate prefixes per level, each with the
// count, tally, report and absorb supersteps, and on the charged executor
// those run as clique.Bulk steps. One pass over the level's slots, in slot
// order, records for every slot prefix the leader's predicate inputs and
// each superstep's peak loads (truncation.go), so a candidate is charged in
// O(1) with the same rounds, words and per-superstep stats its messages
// would cost. TestBulkChargesMatchDeclaredSteps pins this against the
// materializing executor's messages at every candidate of every level, and
// the executor goldens (the Fidelity tests) pin whole samples.
//
// A Prepared pools the sampler states its draws run on (sync.Pool, one
// state per concurrent draw): a warm draw reuses the pair tables, the
// first-visit buffers and the per-machine random sources of an earlier
// one, reset by epoch, and TestPooledDrawsMatchFreshRunners pins that a
// pooled state, concurrent or after a failed draw, draws what a fresh one
// does.
//
// # Contract: precomputation split and byte-identical outputs
//
// Prepare/PrepareExact split the per-graph, sample-independent work (the
// phase-0 dyadic power table of the walk on G) from the per-sample work; a
// Prepared is immutable after construction and safe for any number of
// concurrent SampleWith calls. The exact variant changes ρ, Las Vegas
// extension and placement but not that table, so Prepared.Exact derives it
// from a phase Prepared without a second table. Phase 0 walks on G itself
// and holds no shortcut matrix: its first-visit weights read the identity.
// A later phase solves only the shortcut rows its first-visit step reads,
// one per distinct Schur-walk predecessor of a first visit, once the phase
// walk (every Las Vegas segment of it) is known; the round charge for the
// shortcut build stays at the phase build, so Stats do not move.
// The package guarantees that for a fixed (graph, Config, seed stream) the
// sampled tree AND the reported Stats are byte-identical across every
// execution variant: cold vs warm (Prepared reuse; the phase-0 build's
// round charges are replayed) and the charged vs the materializing clique
// executor. Warm paths only ever reuse state that is a pure function of
// (graph, Config), never of sampling history: every later phase walks on a
// subset that depends on the walk and is built fresh.
package core
