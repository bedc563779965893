package cmx

import (
	"fmt"
	"math/cmplx"
	"strings"
)

// Matrix is a dense, row-major complex matrix.
type Matrix struct {
	Rows, Cols int
	Data       []complex128 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("cmx: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]complex128, rows*cols)}
}

// FromColumns builds a matrix whose j-th column is cols[j]. All columns must
// share the same length.
func FromColumns(cols []Vector) *Matrix {
	if len(cols) == 0 {
		return NewMatrix(0, 0)
	}
	n := len(cols[0])
	m := NewMatrix(n, len(cols))
	for j, c := range cols {
		mustSameLen(n, len(c))
		for i := 0; i < n; i++ {
			m.Set(i, j, c[i])
		}
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) complex128 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v complex128) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVec returns m·v.
func (m *Matrix) MulVec(v Vector) Vector {
	mustSameLen(m.Cols, len(v))
	out := make(Vector, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s complex128
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, x := range row {
			s += x * v[j]
		}
		out[i] = s
	}
	return out
}

// Gram returns mᴴ·m (the Gram matrix of the columns of m).
func (m *Matrix) Gram() *Matrix {
	out := NewMatrix(m.Cols, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for a := 0; a < m.Cols; a++ {
			ca := cmplx.Conj(row[a])
			if ca == 0 {
				continue
			}
			orow := out.Data[a*out.Cols : (a+1)*out.Cols]
			for b := 0; b < m.Cols; b++ {
				orow[b] += ca * row[b]
			}
		}
	}
	return out
}

// String renders a compact human-readable matrix, mainly for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			fmt.Fprintf(&sb, "% .3f%+.3fi ", real(m.At(i, j)), imag(m.At(i, j)))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
