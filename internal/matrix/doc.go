// Package matrix implements the dense linear algebra substrate of the
// reproduction: matrix products and powers (with the bounded-precision
// truncation of the paper's Lemma 7), Gaussian elimination and Schur-style
// block solves, determinants (floating point and exact big-integer, the
// latter powering Matrix-Tree ground truth), and the permanent via Ryser's
// formula (the counting core of weighted perfect matching sampling, §1.8).
//
// Matrices are dense, row-major float64. The sizes in this repository are
// n x n for graphs up to a few hundred vertices. Each dense kernel has one
// sequential implementation — a register-tiled multiply and a column-panel
// LU — that is bit-exact against the naive loops the differential tests
// keep as their reference; no SIMD is attempted.
package matrix
