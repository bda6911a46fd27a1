// Package matrix implements the dense linear algebra substrate of the
// reproduction: matrix products and powers (with the bounded-precision
// truncation of the paper's Lemma 7), Gaussian elimination and Schur-style
// block solves, and determinants (floating point and exact big-integer, the
// latter powering Matrix-Tree ground truth).
//
// Matrices are dense, row-major float64. The sizes in this repository are
// n x n for graphs up to a few hundred vertices. Every dense kernel runs
// sequentially on the calling goroutine and is bit-exact against the naive
// loops the differential tests keep as their reference.
//
// The multiply and the batched solve have two paths with the same bytes: the
// portable register-tiled Go kernels, and AVX tiles (4x8 output tiles for
// the multiply, 16 columns per tile for the solve). The kernel contract
// both follow:
//   - one multiply and one add (or subtract) per term, each rounded, in the
//     reference's order; the AVX tiles never use FMA, whose single rounding
//     changes bytes;
//   - a multiply term with a[i][k] == 0 is skipped: the Go kernel branches,
//     the AVX tile masks the product to +0 (VCMPPD NEQ_UQ, then VANDPD), so
//     0*Inf never reaches the output;
//   - the path is chosen once, at package init, from CPUID (OSXSAVE and AVX)
//     and XGETBV (the OS saves YMM state). There is no flag, env var or
//     option; off amd64, without AVX, or built with the purego tag the Go
//     kernels are the only path, and Kernel reports which one runs. The LU
//     factorization has one path.
package matrix
