package vec

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix. The zero value is an empty matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("vec: NewMatrix negative shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return &Matrix{}
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("vec: FromRows ragged row %d: %d vs %d", i, len(r), cols))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns the entry at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into the entry at row i, column j.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{Rows: m.Rows, Cols: m.Cols, Data: make([]float64, len(m.Data))}
	copy(c.Data, m.Data)
	return c
}

// MulVec computes dst = m * x. dst must have length m.Rows and must not
// alias x.
func (m *Matrix) MulVec(x, dst Vector) {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("vec: MulVec x length %d, want %d", len(x), m.Cols))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("vec: MulVec dst length %d, want %d", len(dst), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// MulVecT computes dst = mᵀ * x without materialising the transpose. dst
// must have length m.Cols and must not alias x.
func (m *Matrix) MulVecT(x, dst Vector) {
	if len(x) != m.Rows {
		panic(fmt.Sprintf("vec: MulVecT x length %d, want %d", len(x), m.Rows))
	}
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("vec: MulVecT dst length %d, want %d", len(dst), m.Cols))
	}
	Fill(dst, 0)
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			dst[j] += v * xi
		}
	}
}

// Mul returns the product a*b as a new matrix.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("vec: Mul shape mismatch %dx%d * %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		crow := c.Data[i*c.Cols : (i+1)*c.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}

// NormalizeColumns rescales each column of m in place so it sums to one.
// Columns whose sum is zero are replaced by the uniform column 1/Rows,
// mirroring the paper's dangling-node convention; set fillUniform to false
// to leave zero columns untouched instead. It returns the number of zero
// columns encountered.
func (m *Matrix) NormalizeColumns(fillUniform bool) int {
	zero := 0
	for j := 0; j < m.Cols; j++ {
		var s float64
		for i := 0; i < m.Rows; i++ {
			s += m.Data[i*m.Cols+j]
		}
		if s == 0 {
			zero++
			if fillUniform && m.Rows > 0 {
				u := 1 / float64(m.Rows)
				for i := 0; i < m.Rows; i++ {
					m.Data[i*m.Cols+j] = u
				}
			}
			continue
		}
		inv := 1 / s
		for i := 0; i < m.Rows; i++ {
			m.Data[i*m.Cols+j] *= inv
		}
	}
	return zero
}

// IsColumnStochastic reports whether every column of m is nonnegative and
// sums to one within tol.
func (m *Matrix) IsColumnStochastic(tol float64) bool {
	for j := 0; j < m.Cols; j++ {
		var s float64
		for i := 0; i < m.Rows; i++ {
			v := m.Data[i*m.Cols+j]
			if v < -tol || math.IsNaN(v) {
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

// String renders the matrix with 4-decimal entries, one row per line.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.4f", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
