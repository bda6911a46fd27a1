//go:build !amd64

package matrix

// haveAVX is false off amd64: the portable Go kernels are the only path.
const haveAVX = false

func mul4x8AVX(c, a, b *float64, n, lda, ldb, ldc int) { panic("matrix: AVX kernel off amd64") }

func solve16AVX(lu, x *float64, n, ldlu, ldx int) { panic("matrix: AVX kernel off amd64") }
