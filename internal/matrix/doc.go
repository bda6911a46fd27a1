// Package matrix implements the dense linear algebra substrate of the
// reproduction: matrix products and powers (with the bounded-precision
// truncation of the paper's Lemma 7), one in-place LU factorization with
// batched solves for the absorbing-chain systems of Schur elimination, and
// the exact big-integer determinant behind Matrix-Tree ground truth (there
// is no floating-point determinant).
//
// Matrices are dense, row-major float64. The sizes in this repository are
// n x n for graphs up to a few hundred vertices. Every dense kernel runs
// sequentially on the calling goroutine and is bit-exact against the naive
// loops the differential tests keep as their reference.
//
// The multiply and the batched solve have three paths with the same bytes:
// the portable register-tiled Go kernels ("go"); AVX tiles ("avx": 4x8
// output tiles for the multiply, 16 columns per tile for the solve); and,
// on AVX-512 hosts, 4x16 ZMM tiles for the multiply ("avx512", with the AVX
// solve). The kernel contract all follow:
//   - one multiply and one add (or subtract) per term, each rounded, in the
//     reference's order; the assembly tiles never use FMA, whose single
//     rounding changes bytes;
//   - a multiply term with a[i][k] == 0 is skipped, so 0*Inf never reaches
//     the output. The Go kernel branches; the tiles add every term and rely
//     on the finiteness rule: over a finite b a skipped term's product is
//     ±0, which leaves an accumulator that starts at +0 bit-identical. A b
//     holding Inf or NaN is found by one scan and runs on the Go kernel;
//   - the path is chosen once, at package init, from CPUID (OSXSAVE, AVX,
//     AVX512F) and XGETBV (the OS saves YMM and ZMM state). There is no
//     flag, env var or option; off amd64, without AVX, or built with the
//     purego tag the Go kernels are the only path, and Kernel reports which
//     one runs.
//
// The LU factorization runs one elimination schedule, the reference's
// right-looking one: pivot search, row swap, multipliers, then one row
// update per nonzero multiplier, which the AVX paths run in 16- and 4-column
// tiles with the same one multiply and one subtraction per element.
package matrix
