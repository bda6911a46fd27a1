// Package schur implements the two derivative graphs at the heart of the
// paper's phase structure (§1.7):
//
//   - Schur(G, S): the Schur complement graph on a vertex subset S
//     (Definitions 1 and 2). A random walk on Schur(G, S) looks exactly like
//     a random walk on G watched only on S, which is how later phases skip
//     vertices visited in earlier phases.
//   - ShortCut(G, S): the shortcut graph (Definition 3), whose transition
//     matrix Q gives the distribution of the last vertex visited before the
//     walk (re-)enters S. Q is what recovers first-visit edges in G from a
//     walk taken on Schur(G, S) (Algorithm 4, §2.2). Algorithm 4 reads Q
//     only at the walk's predecessors of first visits, so ShortcutRows
//     solves just the requested rows, each a column of one batched solve
//     and bit-identical to that row of ShortcutTransition.
//
// The package computes both exactly, via block linear algebra on the
// absorbing chain. Both solvers read the transition probabilities from the
// graph's adjacency (graph.VisitTransitions) and build the absorbing-chain
// system I - T, or its transpose, through one builder, factorAbsorbing; no
// n x n transition matrix is formed. The paper's other constructions are test oracles in
// oracle_test.go, not shipped code: the Laplacian-eliminated complement
// graph of Definition 1, the iterative build by repeated squaring of the
// augmented chain (Corollaries 2 and 3, the route the paper uses to bound
// the congested clique cost), and the Bayes-rule first-visit edge
// distribution of Algorithm 4. The tests check that the exact solvers agree
// with each of them.
package schur
