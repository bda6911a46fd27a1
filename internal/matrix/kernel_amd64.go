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

// haveAVX512 reports whether the CPU and the operating system both support
// AVX-512F on top of AVX: CPUID.(7,0):EBX has AVX512F (bit 16), and XCR0
// also has the opmask and ZMM state bits (5, 6 and 7) set.
var haveAVX512 = func() bool {
	const avx512f = 1 << 16
	return haveAVX && cpuidEBX7()&avx512f != 0 && xgetbvLow()&0xe6 == 0xe6
}()

// cpuidECX1 returns ECX of CPUID leaf 1.
func cpuidECX1() uint32

// cpuidEBX7 returns EBX of CPUID leaf 7, subleaf 0.
func cpuidEBX7() uint32

// xgetbvLow returns the low 32 bits of XCR0.
func xgetbvLow() uint32

// mul4x8AVX computes one 4x8 tile of a product; see mulTiles.
//
//go:noescape
func mul4x8AVX(c, a, b *float64, n, lda, ldb, ldc int)

// mul4x16AVX512 computes one 4x16 tile of a product; see mulTiles.
//
//go:noescape
func mul4x16AVX512(c, a, b *float64, n, lda, ldb, ldc int)

// solve16AVX substitutes 16 columns in place; see solveColumnsAVX.
//
//go:noescape
func solve16AVX(lu, x *float64, n, ldlu, ldx int)

// finite4AVX reports whether n elements at x, n a multiple of 4, hold no Inf
// and no NaN; see allFinite.
//
//go:noescape
func finite4AVX(x *float64, n int) bool

// subScaledAVX computes x[j] -= f*u[j] over w elements, w a multiple of 4;
// see subScaled.
//
//go:noescape
func subScaledAVX(x, u *float64, f float64, w int)
