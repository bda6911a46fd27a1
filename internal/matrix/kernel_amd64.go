//go:build !purego

package matrix

// haveAVX reports whether the CPU and the operating system both support
// AVX: CPUID.1:ECX has OSXSAVE (bit 27) and AVX (bit 28), and XCR0 has the
// SSE and AVX state bits (1 and 2) set, so the OS saves YMM registers
// across context switches.
var haveAVX = func() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if cpuidECX1()&(osxsave|avx) != osxsave|avx {
		return false
	}
	return xgetbvLow()&6 == 6
}()

// cpuidECX1 returns ECX of CPUID leaf 1.
func cpuidECX1() uint32

// xgetbvLow returns the low 32 bits of XCR0.
func xgetbvLow() uint32

// mul4x8AVX computes one 4x8 tile of a product; see mulTilesAVX.
//
//go:noescape
func mul4x8AVX(c, a, b *float64, n, lda, ldb, ldc int)

// solve16AVX substitutes 16 columns in place; see solveColumnsAVX.
//
//go:noescape
func solve16AVX(lu, x *float64, n, ldlu, ldx int)
