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
// Every protocol message flows through the clique simulator (or, in the
// default charged fidelity, is charged analytically from the identical
// communication pattern), so the reported round counts are the loads the
// paper's accounting charges; see the clique package documentation for the
// cost model.
//
// # Contract: precomputation split and byte-identical outputs
//
// Prepare/PrepareExact split the per-graph, sample-independent work (the
// normalized adjacency, the phase-0 Schur state and dyadic power table)
// from the per-sample work; a Prepared is immutable after construction and
// safe for any number of concurrent SampleWith calls. The package
// guarantees that for a fixed (graph, Config, seed stream) the sampled tree
// AND the reported Stats are byte-identical across every execution
// variant: cold vs warm (Prepared reuse; the phase-0 build's round charges
// are replayed) and charged vs full simulator fidelity. Warm paths only
// ever reuse state that is a pure function of (graph, Config), never of
// sampling history: every later phase walks on a subset that depends on the
// walk and is built fresh.
package core
