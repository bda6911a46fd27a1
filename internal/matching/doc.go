// Package matching samples weighted perfect matchings of complete bipartite
// graphs — the compression engine of the paper's midpoint placement step
// (§1.8, §2.1.3, Lemma 3).
//
// The instance is a k x k non-negative weight matrix W over midpoints x
// (rows) and midpoint positions y (columns); a perfect matching is a
// permutation σ and its weight is Π_i W[i, σ(i)]. The sampler must draw σ
// with probability proportional to its weight; Lemma 3 shows this re-samples
// the chronological order of the collected midpoint multiset with exactly
// the right conditional probability.
//
// The paper invokes the Jerrum–Sinclair–Vigoda FPRAS for the permanent plus
// the Jerrum–Valiant–Vazirani sampling-from-counting reduction as a
// polynomial-time black box. This package provides:
//
//   - Exact: the JVV self-reduction with exact counts. It draws row by row,
//     in order, from conditionals read off one table of the permanents of
//     every row suffix against every column subset, filled bottom-up in
//     O(k·2^k) with non-negative terms only. Exponential in k but exact; the
//     default for the instance sizes the simulator actually meets, and the
//     ground truth for every distribution test.
//   - Metropolis: a transposition-walk Metropolis chain over permutations,
//     a practical stand-in for the JSV chain on larger instances whose
//     accuracy is measured (not assumed) against Exact in the test suite
//     and experiment E11. It replaces the JSV chain, whose polynomial
//     mixing bound is far too large to run at simulated sizes.
//
// The phase sampler calls Exact directly: it only builds matching instances
// of at most 12 positions, and places larger ones directly (Lemma 4).
package matching
