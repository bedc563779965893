package cmx

import (
	"fmt"
	"math"
	"math/cmplx"
)

// ErrNotPD reports a matrix that is not (numerically) Hermitian positive
// definite, so a Cholesky factorization does not exist.
var ErrNotPD = fmt.Errorf("cmx: matrix is not positive definite")

// CholeskyFactor holds the lower-triangular factor L of a Hermitian
// positive-definite matrix A = L·Lᴴ. The zero value is ready for use:
// Factor grows the internal buffer as needed and reuses it across calls,
// so a long-lived CholeskyFactor refactors with zero allocations once
// warm. All methods are in-place and allocation-free.
//
// This is the per-fit hoisted factorization of the ridged Gram in the
// super-resolution solver (Eq. 23): factor once, then every alignment
// candidate solve is two triangular substitutions.
type CholeskyFactor struct {
	n int
	// l is the n×n row-major factor; the strictly upper part is garbage.
	// Diagonal entries of L are real and positive by construction, so the
	// storage packs (L_ii, 1/L_ii) into (real, imag) of l[i*n+i]: the
	// substitutions and the factorization itself then scale by the cached
	// reciprocal instead of dividing — the solve runs once per alignment
	// candidate in the super-resolution hot loop, where the divides were
	// measurable.
	l []complex128
}

// CholeskyWith returns a factor that uses buf as backing storage, so a
// caller-owned (e.g. workspace) buffer of at least n² elements makes
// Factor allocation-free. The buffer is owned by the factor until it is
// discarded.
func CholeskyWith(buf []complex128) CholeskyFactor {
	return CholeskyFactor{l: buf[:0]}
}

// N returns the dimension of the factored matrix (0 before first Factor).
func (c *CholeskyFactor) N() int { return c.n }

// Factor computes the Cholesky factorization of the Hermitian
// positive-definite matrix a, replacing any previous factorization. a is
// not modified; only its lower triangle (and real diagonal part) is read,
// so tiny Hermitian-symmetry rounding in the upper triangle is ignored.
// Returns ErrNotPD if a pivot is non-positive or underflows, in which
// case the factor contents are undefined and must not be used.
func (c *CholeskyFactor) Factor(a *Matrix) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("cmx: Cholesky requires a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	if cap(c.l) < n*n {
		c.l = make([]complex128, n*n)
	}
	c.l = c.l[:n*n]
	c.n = n
	l := c.l
	const tiny = 1e-150
	for i := 0; i < n; i++ {
		ri := l[i*n:]
		for j := 0; j <= i; j++ {
			var s complex128
			rj := l[j*n:]
			for k := 0; k < j; k++ {
				s += ri[k] * cmplx.Conj(rj[k])
			}
			if i == j {
				d := real(a.At(i, i)) - real(s)
				if !(d > tiny) || math.IsNaN(d) { // also catches NaN/Inf
					c.n = 0
					return ErrNotPD
				}
				sd := math.Sqrt(d)
				ri[i] = complex(sd, 1/sd)
			} else {
				v := a.At(i, j) - s
				r := imag(rj[j]) // cached 1/L_jj
				ri[j] = complex(real(v)*r, imag(v)*r)
			}
		}
	}
	return nil
}

// SolveInto solves A·x = b for the factored A = L·Lᴴ, writing x into dst
// and returning it. dst and b must both have length N(); dst may alias b
// (the solve is safely in-place). No allocations.
func (c *CholeskyFactor) SolveInto(dst, b Vector) Vector {
	n := c.n
	mustSameLen(n, len(b))
	mustSameLen(n, len(dst))
	l := c.l
	if n == 3 {
		// Fully unrolled 3×3 solve: the super-resolution alignment search
		// performs one of these per candidate with K=3 beams, where loop
		// and bounds-check overhead is comparable to the arithmetic.
		d0, d1, d2 := imag(l[0]), imag(l[4]), imag(l[8])
		y0 := scaleRe(b[0], d0)
		y1 := scaleRe(b[1]-l[3]*y0, d1)
		y2 := scaleRe(b[2]-l[6]*y0-l[7]*y1, d2)
		x2 := scaleRe(y2, d2)
		x1 := scaleRe(y1-cmplx.Conj(l[7])*x2, d1)
		dst[2] = x2
		dst[1] = x1
		dst[0] = scaleRe(y0-cmplx.Conj(l[3])*x1-cmplx.Conj(l[6])*x2, d0)
		return dst
	}
	// Forward substitution: L·y = b, scaling by the reciprocal pivots
	// cached in the imaginary part of the diagonal (no divisions).
	for i := 0; i < n; i++ {
		s := b[i]
		ri := l[i*n:]
		for k := 0; k < i; k++ {
			s -= ri[k] * dst[k]
		}
		d := imag(ri[i])
		dst[i] = complex(real(s)*d, imag(s)*d)
	}
	// Back substitution: Lᴴ·x = y.
	for i := n - 1; i >= 0; i-- {
		s := dst[i]
		for k := i + 1; k < n; k++ {
			s -= cmplx.Conj(l[k*n+i]) * dst[k]
		}
		d := imag(l[i*n+i])
		dst[i] = complex(real(s)*d, imag(s)*d)
	}
	return dst
}

// scaleRe scales a complex value by a real factor (two multiplications —
// no complex-division runtime call).
func scaleRe(v complex128, d float64) complex128 {
	return complex(real(v)*d, imag(v)*d)
}

// MulVecInto computes A·v for the factored A = L·(Lᴴ) without forming A,
// writing the product into dst and returning it. dst must not alias v.
// No allocations. Useful for residual evaluation ‖b − A·x‖ against the
// same rounding path as the factorization.
func (c *CholeskyFactor) MulVecInto(dst, v Vector) Vector {
	n := c.n
	mustSameLen(n, len(v))
	mustSameLen(n, len(dst))
	l := c.l
	// dst = Lᴴ·v (column-walk of L). The diagonal packs (L_ii, 1/L_ii),
	// so only its real part participates in the product.
	for i := 0; i < n; i++ {
		s := complex(real(l[i*n+i]), 0) * v[i]
		for k := i + 1; k < n; k++ {
			s += cmplx.Conj(l[k*n+i]) * v[k]
		}
		dst[i] = s
	}
	// dst = L·dst, in place: row i of L only reads dst[0..i], all of which
	// are still the Lᴴ·v values when processed top-down? No — L is lower
	// triangular, so row i reads dst[k] for k ≤ i, which would already be
	// overwritten. Process bottom-up instead: row i writes dst[i] from
	// dst[0..i], and rows below i (already done) no longer read dst[0..i].
	for i := n - 1; i >= 0; i-- {
		ri := l[i*n:]
		var s complex128
		for k := 0; k < i; k++ {
			s += ri[k] * dst[k]
		}
		s += complex(real(ri[i]), 0) * dst[i]
		dst[i] = s
	}
	return dst
}
