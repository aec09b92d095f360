// Package mat implements the dense linear algebra needed by the learning
// components: vectors and row-major matrices, level-1/2/3 kernels (with a
// goroutine-parallel blocked matmul), and the Cholesky and QR
// factorizations used to solve least-squares problems.
//
// The package is deliberately small and allocation-conscious rather than a
// general BLAS: shapes are checked eagerly (mismatches panic, since they
// are programming errors, not data errors), and all hot loops operate on
// raw float64 slices.
package mat

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewDense returns a zeroed Rows×Cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a Dense from a slice of equal-length rows, copying them.
func FromRows(rows [][]float64) *Dense {
	r := len(rows)
	if r == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("mat: ragged input, row %d has %d cols want %d", i, len(row), c))
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Col copies column j into a new slice.
func (m *Dense) Col(j int) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Data[i*m.Cols+j]
	}
	return out
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

// Equalish reports whether a and b have the same shape and elements within tol.
func Equalish(a, b *Dense, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// ---- level-1 vector kernels ----

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("mat: Dot length mismatch")
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("mat: Axpy length mismatch")
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scale multiplies x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Norm2 returns the Euclidean norm of x, guarding against overflow.
func Norm2(x []float64) float64 {
	var scale, ssq float64 = 0, 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// NormInf returns the maximum absolute value of x (0 for empty x).
func NormInf(x []float64) float64 {
	var s float64
	for _, v := range x {
		if a := math.Abs(v); a > s {
			s = a
		}
	}
	return s
}

// AddTo computes dst = a + b elementwise. dst may alias a or b.
func AddTo(dst, a, b []float64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("mat: AddTo length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// SubTo computes dst = a - b elementwise. dst may alias a or b.
func SubTo(dst, a, b []float64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("mat: SubTo length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// ---- level-2 ----

// MulVec computes dst = m * x. dst must have length m.Rows and must not
// alias x. A nil dst is allocated.
func (m *Dense) MulVec(dst, x []float64) []float64 {
	if len(x) != m.Cols {
		panic("mat: MulVec dimension mismatch")
	}
	if dst == nil {
		dst = make([]float64, m.Rows)
	}
	if len(dst) != m.Rows {
		panic("mat: MulVec dst length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = Dot(m.Row(i), x)
	}
	return dst
}

// MulVecT computes dst = mᵀ * x without forming the transpose.
func (m *Dense) MulVecT(dst, x []float64) []float64 {
	if len(x) != m.Rows {
		panic("mat: MulVecT dimension mismatch")
	}
	if dst == nil {
		dst = make([]float64, m.Cols)
	}
	if len(dst) != m.Cols {
		panic("mat: MulVecT dst length mismatch")
	}
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < m.Rows; i++ {
		Axpy(x[i], m.Row(i), dst)
	}
	return dst
}
