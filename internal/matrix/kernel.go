package matrix

// mulRows computes out = a*b, overwriting every row of out. Shapes are
// already validated and out aliases neither operand.
//
// The kernel is register-tiled: 4x2 output tiles held in registers across
// the whole k loop, so the 16 flops per k cost six loads and no stores. A
// column pair of b is one stride-w walk per tile row-quad (w*8-byte stride,
// n cache lines — L1-resident through n=512, and the next three column pairs
// hit the same lines). Per output element (i, j) the value is the sum of
// a[i][k]*b[k][j] over ascending k, skipping terms with a[i][k] == 0; this
// operation sequence is the package's bit-exactness contract, which the
// differential tests pin against a naive reference. The per-(row, k)
// `f != 0` branches are what keep zero entries of a from ever touching
// Inf/NaN in b, which a branchless formulation would get wrong. (The one
// carve-out: when an input already holds NaN, the output entry is NaN but
// its payload bits follow the compiler's operand ordering, which IEEE
// addition leaves unspecified.)
func mulRows(out, a, b *Matrix) {
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
