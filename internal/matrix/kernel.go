package matrix

import "math"

// useAVX selects the AVX tiles for the multiply and the batched solve, and
// useAVX512 the 4x16 ZMM multiply tile over the 4x8 YMM one. Both are set
// once, at package init, from the CPU's feature bits; tests flip them to run
// every path on the same host.
var (
	useAVX    = haveAVX
	useAVX512 = haveAVX512
)

// Kernel names the dense-kernel path this process runs: "avx512", "avx" or
// "go".
func Kernel() string {
	switch {
	case useAVX && useAVX512:
		return "avx512"
	case useAVX:
		return "avx"
	}
	return "go"
}

// mulRows computes out = a*b, overwriting every row of out. Shapes are
// already validated and out aliases neither operand.
//
// Per output element (i, j) the value is the sum of a[i][k]*b[k][j] over
// ascending k, skipping terms with a[i][k] == 0: one multiply and one add per
// term, each rounded, never fused. This operation sequence is the package's
// bit-exactness contract, which the differential tests pin against a naive
// reference on every path. The skip is what keeps zero entries of a from
// ever touching Inf/NaN in b. (The one carve-out: when an input already
// holds NaN, the output entry is NaN but its payload bits follow operand
// ordering, which IEEE addition leaves unspecified.)
//
// The AVX tiles add every term, skipped or not, and rely on the finiteness
// rule instead: when every entry of b is finite, a skipped term's product
// 0*b is ±0, and adding ±0 to an accumulator that starts at +0, and so is
// never -0, leaves its bits unchanged. So b is scanned once (O(inner*cols)
// against the product's O(rows*inner*cols)), and a non-finite b goes to the
// Go kernel, whose explicit branch keeps 0*Inf out of the output.
func mulRows(out, a, b *Matrix) {
	switch mulPath(a, b) {
	case "avx512":
		mulTiles(out, a, b, 16, mul4x16AVX512)
	case "avx":
		mulTiles(out, a, b, 8, mul4x8AVX)
	default:
		mulRowsGo(out, a, b)
	}
}

// mulPath names the kernel mulRows runs for a*b: the process's Kernel,
// narrowed by the tiles' minimum shapes and by the finiteness of b.
func mulPath(a, b *Matrix) string {
	switch {
	case !useAVX || a.rows < 4 || b.cols < 8 || !allFinite(b.data):
		return "go"
	case useAVX512 && b.cols >= 16:
		return "avx512"
	}
	return "avx"
}

// allFinite reports whether x holds no Inf and no NaN: an all-ones exponent
// marks both. With AVX the whole groups of four go through the vector scan
// (finite4AVX) and the Go loop takes the rest; without it, the Go loop takes
// everything.
func allFinite(x []float64) bool {
	if m := len(x) &^ 3; useAVX && m > 0 {
		if !finite4AVX(&x[0], m) {
			return false
		}
		x = x[m:]
	}
	const exp = 0x7ff << 52
	for _, v := range x {
		if math.Float64bits(v)&exp == exp {
			return false
		}
	}
	return true
}

// mulTiles covers out with 4-row tiles of the given width: 4x8 with eight
// YMM accumulators (mul4x8AVX) or 4x16 with eight ZMM accumulators
// (mul4x16AVX512), held across the whole k loop. Each lane runs mulRowsGo's
// sequence: VMULPD, then VADDPD, in ascending k, never FMA. A ragged last
// tile row or column is shifted back to end at the edge: the elements it
// shares with its neighbour are recomputed to the same bits. The caller
// guarantees at least 4 rows and width columns.
func mulTiles(out, a, b *Matrix, width int, tile func(c, a, b *float64, n, lda, ldb, ldc int)) {
	n, w, rows := a.cols, b.cols, a.rows
	for i := 0; i < rows; i += 4 {
		i = min(i, rows-4)
		for j := 0; j < w; j += width {
			j = min(j, w-width)
			tile(&out.data[i*w+j], &a.data[i*n], &b.data[j], n, n, w, w)
		}
	}
}

// mulRowsGo is the portable kernel: the only path off amd64 or without AVX,
// and the path for a b that holds Inf or NaN.
// It is register-tiled: 4x2 output tiles held in registers across the whole
// k loop, so the 16 flops per k cost six loads and no stores. A column pair
// of b is one stride-w walk per tile row-quad (w*8-byte stride, n cache
// lines — L1-resident through n=512, and the next three column pairs hit the
// same lines). The per-(row, k) `f != 0` branches are the skip of the
// contract above.
func mulRowsGo(out, a, b *Matrix) {
	n := a.cols
	w := b.cols
	bd := b.data
	rows := a.rows
	i := 0
	for ; i+4 <= rows; i += 4 {
		a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		o0, o1, o2, o3 := out.Row(i), out.Row(i+1), out.Row(i+2), out.Row(i+3)
		var j int
		for ; j+2 <= w; j += 2 {
			var c00, c01, c10, c11, c20, c21, c30, c31 float64
			bo := j
			for k := 0; k < n; k++ {
				v0, v1 := bd[bo], bd[bo+1]
				if f := a0[k]; f != 0 {
					c00 += f * v0
					c01 += f * v1
				}
				if f := a1[k]; f != 0 {
					c10 += f * v0
					c11 += f * v1
				}
				if f := a2[k]; f != 0 {
					c20 += f * v0
					c21 += f * v1
				}
				if f := a3[k]; f != 0 {
					c30 += f * v0
					c31 += f * v1
				}
				bo += w
			}
			o0[j], o0[j+1] = c00, c01
			o1[j], o1[j+1] = c10, c11
			o2[j], o2[j+1] = c20, c21
			o3[j], o3[j+1] = c30, c31
		}
		if j < w {
			var c0, c1, c2, c3 float64
			bo := j
			for k := 0; k < n; k++ {
				v := bd[bo]
				if f := a0[k]; f != 0 {
					c0 += f * v
				}
				if f := a1[k]; f != 0 {
					c1 += f * v
				}
				if f := a2[k]; f != 0 {
					c2 += f * v
				}
				if f := a3[k]; f != 0 {
					c3 += f * v
				}
				bo += w
			}
			o0[j], o1[j], o2[j], o3[j] = c0, c1, c2, c3
		}
	}
	for ; i < rows; i++ {
		ai := a.Row(i)
		oi := out.Row(i)
		var j int
		for ; j+2 <= w; j += 2 {
			var c0, c1 float64
			bo := j
			for k := 0; k < n; k++ {
				if f := ai[k]; f != 0 {
					c0 += f * bd[bo]
					c1 += f * bd[bo+1]
				}
				bo += w
			}
			oi[j], oi[j+1] = c0, c1
		}
		if j < w {
			var c float64
			bo := j
			for k := 0; k < n; k++ {
				if f := ai[k]; f != 0 {
					c += f * bd[bo]
				}
				bo += w
			}
			oi[j] = c
		}
	}
}
