package cmx

import (
	"fmt"
	"math/cmplx"
)

// ErrSingular reports a numerically singular system.
var ErrSingular = fmt.Errorf("cmx: singular matrix")

// Solve solves the square linear system A·x = b using Gaussian elimination
// with partial pivoting. A and b are not modified. It returns ErrSingular
// when a pivot underflows.
func Solve(a *Matrix, b Vector) (Vector, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("cmx: Solve requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	mustSameLen(a.Rows, len(b))
	n := a.Rows
	// Augmented working copies.
	m := a.Clone()
	x := b.Clone()

	const tiny = 1e-300
	for col := 0; col < n; col++ {
		// Partial pivot: find the row with the largest magnitude in this column.
		pivot, pmag := col, cmplx.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if mag := cmplx.Abs(m.At(r, col)); mag > pmag {
				pivot, pmag = r, mag
			}
		}
		if pmag < tiny {
			return nil, ErrSingular
		}
		if pivot != col {
			swapRows(m, pivot, col)
			x[pivot], x[col] = x[col], x[pivot]
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			m.Set(r, col, 0)
			for c := col + 1; c < n; c++ {
				m.Set(r, c, m.At(r, c)-f*m.At(col, c))
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m.At(i, j) * x[j]
		}
		x[i] = s / m.At(i, i)
	}
	return x, nil
}

func swapRows(m *Matrix, i, j int) {
	ri := m.Data[i*m.Cols : (i+1)*m.Cols]
	rj := m.Data[j*m.Cols : (j+1)*m.Cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}
