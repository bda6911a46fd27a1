package matrix

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64 values.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns a zero rows x cols matrix. It returns an error when either
// dimension is not positive.
func New(rows, cols int) (*Matrix, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("matrix: invalid dimensions %dx%d", rows, cols)
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}, nil
}

// MustNew is New for dimensions known to be valid at the call site (tests,
// literals). It panics on invalid dimensions.
func MustNew(rows, cols int) *Matrix {
	m, err := New(rows, cols)
	if err != nil {
		panic(err)
	}
	return m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := MustNew(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// FromRows builds a matrix from a rectangular slice of rows. It returns an
// error if the input is empty or ragged.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("matrix: FromRows on empty input")
	}
	cols := len(rows[0])
	m := MustNew(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("matrix: ragged input, row 0 has %d cols, row %d has %d", cols, i, len(r))
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// Rows reports the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols reports the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the (i, j) entry. Indices are not bounds-checked beyond the
// slice access itself; callers index within [0,Rows) x [0,Cols).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the (i, j) entry.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Add increments the (i, j) entry by v.
func (m *Matrix) Add(i, j int, v float64) { m.data[i*m.cols+j] += v }

// Row returns row i as a slice sharing the matrix's backing storage. The
// caller must not grow it; mutating entries mutates the matrix. Use RowCopy
// at package boundaries.
func (m *Matrix) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// RowCopy returns an independent copy of row i.
func (m *Matrix) RowCopy(i int) []float64 {
	out := make([]float64, m.cols)
	copy(out, m.Row(i))
	return out
}

// Col returns an independent copy of column j.
func (m *Matrix) Col(j int) []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := MustNew(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Transpose returns a new transposed matrix.
func (m *Matrix) Transpose() *Matrix {
	t := MustNew(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.data[j*t.cols+i] = v
		}
	}
	return t
}

// Equal reports whether m and o have the same shape and entries within tol.
func (m *Matrix) Equal(o *Matrix, tol float64) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(v-o.data[i]) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute entrywise difference between m and
// o. It returns an error on shape mismatch.
func (m *Matrix) MaxAbsDiff(o *Matrix) (float64, error) {
	if m.rows != o.rows || m.cols != o.cols {
		return 0, fmt.Errorf("matrix: shape mismatch %dx%d vs %dx%d", m.rows, m.cols, o.rows, o.cols)
	}
	var d float64
	for i, v := range m.data {
		if a := math.Abs(v - o.data[i]); a > d {
			d = a
		}
	}
	return d, nil
}

// Mul returns the product m*o. It returns an error on inner-dimension
// mismatch.
func (m *Matrix) Mul(o *Matrix) (*Matrix, error) {
	if m.cols != o.rows {
		return nil, fmt.Errorf("matrix: cannot multiply %dx%d by %dx%d", m.rows, m.cols, o.rows, o.cols)
	}
	out := MustNew(m.rows, o.cols)
	mulRows(out, m, o)
	return out, nil
}

// MulInto computes dst = a*b, overwriting dst, which must already have the
// product's shape and must not alias a or b. It is Mul without the output
// allocation — the allocation-lean form for callers holding scratch buffers.
func MulInto(dst, a, b *Matrix) error {
	if err := checkMulInto(dst, a, b); err != nil {
		return err
	}
	mulRows(dst, a, b)
	return nil
}

func checkMulInto(dst, a, b *Matrix) error {
	if a.cols != b.rows {
		return fmt.Errorf("matrix: cannot multiply %dx%d by %dx%d", a.rows, a.cols, b.rows, b.cols)
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		return fmt.Errorf("matrix: MulInto dst is %dx%d, want %dx%d", dst.rows, dst.cols, a.rows, b.cols)
	}
	if sameBacking(dst, a) || sameBacking(dst, b) {
		return fmt.Errorf("matrix: MulInto dst aliases an operand")
	}
	return nil
}

// sameBacking reports whether two matrices share a backing array. Matrices
// in this package always own their whole array (Row shares windows of it,
// but never across Matrix values), so comparing the first elements suffices.
func sameBacking(x, y *Matrix) bool {
	return len(x.data) > 0 && len(y.data) > 0 && &x.data[0] == &y.data[0]
}

// MulVec returns the matrix-vector product m*v.
func (m *Matrix) MulVec(v []float64) ([]float64, error) {
	if m.cols != len(v) {
		return nil, fmt.Errorf("matrix: cannot multiply %dx%d by vector of length %d", m.rows, m.cols, len(v))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		var s float64
		for j, a := range row {
			s += a * v[j]
		}
		out[i] = s
	}
	return out, nil
}

// VecMul returns the vector-matrix product v*m (v as a row vector).
func (m *Matrix) VecMul(v []float64) ([]float64, error) {
	if m.rows != len(v) {
		return nil, fmt.Errorf("matrix: cannot multiply vector of length %d by %dx%d", len(v), m.rows, m.cols)
	}
	out := make([]float64, m.cols)
	for i, a := range v {
		if a == 0 {
			continue
		}
		row := m.Row(i)
		for j, b := range row {
			out[j] += a * b
		}
	}
	return out, nil
}

// Scale multiplies every entry by f in place and returns m for chaining.
func (m *Matrix) Scale(f float64) *Matrix {
	for i := range m.data {
		m.data[i] *= f
	}
	return m
}

// Submatrix returns the matrix restricted to the given row and column index
// sets, in the given order. It returns an error if any index is out of range
// or either index set is empty.
func (m *Matrix) Submatrix(rowIdx, colIdx []int) (*Matrix, error) {
	if len(rowIdx) == 0 || len(colIdx) == 0 {
		return nil, fmt.Errorf("matrix: empty submatrix index set")
	}
	return m.submatrixInto(MustNew(len(rowIdx), len(colIdx)), rowIdx, colIdx)
}

// SubmatrixScratch is Submatrix with the output drawn from the scratch pool;
// the caller must Release it.
func (m *Matrix) SubmatrixScratch(rowIdx, colIdx []int) (*Matrix, error) {
	if len(rowIdx) == 0 || len(colIdx) == 0 {
		return nil, fmt.Errorf("matrix: empty submatrix index set")
	}
	out := Scratch(len(rowIdx), len(colIdx))
	if _, err := m.submatrixInto(out, rowIdx, colIdx); err != nil {
		out.Release()
		return nil, err
	}
	return out, nil
}

func (m *Matrix) submatrixInto(out *Matrix, rowIdx, colIdx []int) (*Matrix, error) {
	for i, r := range rowIdx {
		if r < 0 || r >= m.rows {
			return nil, fmt.Errorf("matrix: row index %d out of range [0,%d)", r, m.rows)
		}
		src := m.Row(r)
		dst := out.Row(i)
		for j, c := range colIdx {
			if c < 0 || c >= m.cols {
				return nil, fmt.Errorf("matrix: col index %d out of range [0,%d)", c, m.cols)
			}
			dst[j] = src[c]
		}
	}
	return out, nil
}

// RowSums returns the vector of row sums.
func (m *Matrix) RowSums() []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		var s float64
		for _, v := range m.Row(i) {
			s += v
		}
		out[i] = s
	}
	return out
}

// IsStochastic reports whether every entry is non-negative and every row sums
// to 1 within tol. Transition matrices of random walks satisfy this.
func (m *Matrix) IsStochastic(tol float64) bool {
	for i := 0; i < m.rows; i++ {
		var s float64
		for _, v := range m.Row(i) {
			if v < -tol {
				return false
			}
			s += v
		}
		if math.Abs(s-1) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("%dx%d[", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}
