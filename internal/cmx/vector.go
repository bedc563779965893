// Package cmx provides complex-valued vector and matrix primitives used
// throughout the mmReliable stack: inner products, norms, elementwise
// operations, and dense linear solvers (Gaussian elimination and
// ridge-regularized least squares). Everything is built on the standard
// library only and sized for the small, dense systems that arise in
// beamforming (tens of antennas, a handful of paths).
package cmx

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Vector is a dense complex vector.
type Vector []complex128

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Dot returns the unconjugated dot product vᵀu. It panics if lengths differ.
func (v Vector) Dot(u Vector) complex128 {
	mustSameLen(len(v), len(u))
	var s complex128
	for i := range v {
		s += v[i] * u[i]
	}
	return s
}

// Hdot returns the Hermitian inner product ⟨v, u⟩ = Σ conj(v_i)·u_i.
func (v Vector) Hdot(u Vector) complex128 {
	mustSameLen(len(v), len(u))
	var s complex128
	for i := range v {
		s += cmplx.Conj(v[i]) * u[i]
	}
	return s
}

// Norm returns the Euclidean (L2) norm of v.
func (v Vector) Norm() float64 {
	var s float64
	for _, x := range v {
		re, im := real(x), imag(x)
		s += re*re + im*im
	}
	return math.Sqrt(s)
}

// Norm2 returns the squared Euclidean norm of v.
func (v Vector) Norm2() float64 {
	var s float64
	for _, x := range v {
		re, im := real(x), imag(x)
		s += re*re + im*im
	}
	return s
}

// Scale multiplies every element of v by a in place and returns v.
func (v Vector) Scale(a complex128) Vector {
	for i := range v {
		v[i] *= a
	}
	return v
}

// Scaled returns a new vector equal to a·v.
func (v Vector) Scaled(a complex128) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = a * v[i]
	}
	return out
}

// Add returns v + u as a new vector.
func (v Vector) Add(u Vector) Vector {
	mustSameLen(len(v), len(u))
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + u[i]
	}
	return out
}

// Sub returns v − u as a new vector.
func (v Vector) Sub(u Vector) Vector {
	mustSameLen(len(v), len(u))
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - u[i]
	}
	return out
}

// AddScaled adds a·u to v in place and returns v.
func (v Vector) AddScaled(a complex128, u Vector) Vector {
	mustSameLen(len(v), len(u))
	for i := range v {
		v[i] += a * u[i]
	}
	return v
}

// Conj returns the elementwise complex conjugate of v as a new vector.
func (v Vector) Conj() Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = cmplx.Conj(v[i])
	}
	return out
}

// Normalize scales v in place to unit L2 norm and returns v. A zero vector
// is left unchanged.
func (v Vector) Normalize() Vector {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(complex(1/n, 0))
}

// MaxAbs returns the largest elementwise magnitude in v, and its index.
// For an empty vector it returns (0, -1).
func (v Vector) MaxAbs() (float64, int) {
	best, idx := 0.0, -1
	for i, x := range v {
		if a := cmplx.Abs(x); a > best || idx == -1 {
			best, idx = a, i
		}
	}
	return best, idx
}

// Abs returns the elementwise magnitudes of v.
func (v Vector) Abs() []float64 {
	return v.AbsInto(make([]float64, len(v)))
}

// AbsInto writes the elementwise magnitudes of v into dst and returns it
// (see Abs), allocating only when dst is nil. dst must have length
// len(v) when non-nil.
func (v Vector) AbsInto(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(v))
	}
	mustSameLen(len(v), len(dst))
	for i, x := range v {
		dst[i] = cmplx.Abs(x)
	}
	return dst
}

func mustSameLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("cmx: dimension mismatch %d vs %d", a, b))
	}
}
