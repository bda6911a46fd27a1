//go:build !amd64 || purego

package matrix

// haveAVX and haveAVX512 are false off amd64 and under the purego build
// tag: the portable Go kernels are the only path.
const (
	haveAVX    = false
	haveAVX512 = false
)

func mul4x8AVX(c, a, b *float64, n, lda, ldb, ldc int) { panic("matrix: AVX kernel not built") }

func mul4x16AVX512(c, a, b *float64, n, lda, ldb, ldc int) { panic("matrix: AVX kernel not built") }

func solve16AVX(lu, x *float64, n, ldlu, ldx int) { panic("matrix: AVX kernel not built") }

func finite4AVX(x *float64, n int) bool { panic("matrix: AVX kernel not built") }

func subScaledAVX(x, u *float64, f float64, w int) { panic("matrix: AVX kernel not built") }
