// Package antenna models phased-array geometry: steering vectors, array
// factors and beam patterns for uniform linear arrays (ULA), beam codebooks,
// and the weight quantization imposed by real phase-shifter/attenuator
// hardware.
//
// Conventions follow the paper: for an N-element ULA with spacing d and
// wavelength λ, the channel steering vector for departure angle φ is
//
//	a(φ)[n] = e^{−j2π (d/λ) n sinφ},  n = 0..N−1,
//
// so the matched single-beam weight toward φ is w = a(φ)* / √N (Eq. 6).
// Angles are in radians, measured from array broadside, valid in (−π/2, π/2).
package antenna

import (
	"fmt"
	"math"
	"math/cmplx"

	"mmreliable/internal/cmx"
	"mmreliable/internal/dsp"
)

// SpeedOfLight in m/s.
const SpeedOfLight = 299_792_458.0

// ULA describes a uniform linear array.
type ULA struct {
	N       int     // number of elements
	Spacing float64 // element spacing d in meters
	Lambda  float64 // carrier wavelength λ in meters
}

// NewULA returns a half-wavelength-spaced ULA with n elements at the given
// carrier frequency in Hz.
func NewULA(n int, carrierHz float64) *ULA {
	lambda := SpeedOfLight / carrierHz
	return &ULA{N: n, Spacing: lambda / 2, Lambda: lambda}
}

// Validate checks the array parameters.
func (u *ULA) Validate() error {
	if u.N <= 0 {
		return fmt.Errorf("antenna: non-positive element count %d", u.N)
	}
	if u.Spacing <= 0 || u.Lambda <= 0 {
		return fmt.Errorf("antenna: non-positive spacing/wavelength %g/%g", u.Spacing, u.Lambda)
	}
	return nil
}

// SteeringInto writes the steering vector a(φ) for departure angle phi
// into dst and returns it, allocating only when dst is nil. len(dst) must
// equal u.N.
func (u *ULA) SteeringInto(phi float64, dst cmx.Vector) cmx.Vector {
	if dst == nil {
		dst = make(cmx.Vector, u.N)
	}
	if len(dst) != u.N {
		panic(fmt.Sprintf("antenna: steering dst length %d != %d elements", len(dst), u.N))
	}
	k := -2 * math.Pi * u.Spacing / u.Lambda * math.Sin(phi)
	dsp.PhasorFillCmplx(dst, 0, k)
	return dst
}

// SingleBeam returns the unit-norm matched (conjugate) beamforming weights
// for a beam steered toward phi (Eq. 6 of the paper).
func (u *ULA) SingleBeam(phi float64) cmx.Vector {
	return u.SingleBeamInto(phi, make(cmx.Vector, u.N))
}

// SingleBeamInto writes the matched single-beam weights into dst and
// returns it (see SingleBeam), allocating only when dst is nil. The
// arithmetic is identical to SingleBeam: steering vector, elementwise
// conjugate, L2 normalization.
func (u *ULA) SingleBeamInto(phi float64, dst cmx.Vector) cmx.Vector {
	dst = u.SteeringInto(phi, dst)
	for n := range dst {
		dst[n] = cmplx.Conj(dst[n])
	}
	return dst.Normalize()
}

// Gain returns the power gain |a(θ)ᵀw|² of the weight vector w observed
// from direction theta. For a unit-norm matched beam this peaks at N.
func (u *ULA) Gain(w cmx.Vector, theta float64) float64 {
	g := u.SteeringInto(theta, nil).Dot(w)
	return real(g)*real(g) + imag(g)*imag(g)
}

// GainDB returns Gain in decibels.
func (u *ULA) GainDB(w cmx.Vector, theta float64) float64 {
	return 10 * math.Log10(u.Gain(w, theta))
}

// Pattern evaluates the power gain of w over the given angles.
func (u *ULA) Pattern(w cmx.Vector, thetas []float64) []float64 {
	out := make([]float64, len(thetas))
	for i, th := range thetas {
		out[i] = u.Gain(w, th)
	}
	return out
}

// ArrayFactor returns the normalized magnitude of the classic ULA array
// factor for a beam steered at phi0 and observed at theta:
//
//	AF(θ) = sin(Nψ/2) / (N·sin(ψ/2)),  ψ = 2π(d/λ)(sinθ − sinφ₀).
//
// It equals |a(θ)ᵀ w|/√(N·‖w‖²·N) for the matched beam; the tracker inverts
// this function to convert a per-beam power change into an angular deviation
// (Eq. 20 of the paper).
func (u *ULA) ArrayFactor(phi0, theta float64) float64 {
	psi := 2 * math.Pi * u.Spacing / u.Lambda * (math.Sin(theta) - math.Sin(phi0))
	return arrayFactorPsi(u.N, psi)
}

func arrayFactorPsi(n int, psi float64) float64 {
	s := math.Sin(psi / 2)
	if math.Abs(s) < 1e-12 {
		return 1
	}
	return math.Abs(math.Sin(float64(n)*psi/2) / (float64(n) * s))
}

// HalfPowerBeamwidth returns the −3 dB beamwidth (radians) of a broadside
// matched beam, found numerically from the array factor.
func (u *ULA) HalfPowerBeamwidth() float64 {
	target := math.Sqrt(0.5) // amplitude at −3 dB
	lo, hi := 0.0, math.Pi/2
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if u.ArrayFactor(0, mid) > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 2 * lo
}

// InvertArrayFactor returns the angular offset Δ ≥ 0 (radians) from beam
// center at which the matched-beam array factor equals the given amplitude
// ratio (0 < ratio ≤ 1). It searches the main lobe only; values below the
// first-null amplitude clamp to the first null. This is the inverse function
// the mobility tracker applies to per-beam power losses (§4.2).
func (u *ULA) InvertArrayFactor(ratio float64) float64 {
	if ratio >= 1 {
		return 0
	}
	if ratio <= 0 {
		ratio = 1e-6
	}
	// Main lobe of AF in ψ ends at ψ = 2π/N. Bisect on monotone segment.
	psiNull := 2 * math.Pi / float64(u.N)
	lo, hi := 0.0, psiNull
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if arrayFactorPsi(u.N, mid) > ratio {
			lo = mid
		} else {
			hi = mid
		}
	}
	psi := (lo + hi) / 2
	// Convert ψ back to an angle offset near broadside:
	// ψ = 2π(d/λ)(sinθ − sinφ₀) ⇒ for small offsets Δ ≈ ψ/(2π d/λ · cosφ₀).
	// We return the offset in sin-space divided by cos at broadside, i.e.
	// the caller adds this to the beam angle for near-broadside beams.
	sinOffset := psi / (2 * math.Pi * u.Spacing / u.Lambda)
	if sinOffset > 1 {
		sinOffset = 1
	}
	return math.Asin(sinOffset)
}

// Directivity returns the broadside directivity estimate N for a matched
// uniform-amplitude beam (linear scale).
func (u *ULA) Directivity() float64 { return float64(u.N) }
