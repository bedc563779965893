// Package multibeam implements the paper's central idea: constructive
// multi-beam synthesis. A multi-beam directs one lobe at each strong
// channel path with per-lobe amplitude and phase chosen so that the copies
// of the signal arriving over every path add coherently at the receiver
// (Eq. 10 for two beams, Eq. 29 for the general case), conserving total
// radiated power and strictly beating any single beam on SNR whenever a
// second path carries energy.
package multibeam

import (
	"fmt"
	"math"
	"math/cmplx"

	"mmreliable/internal/antenna"
	"mmreliable/internal/cmx"
)

// Beam is one lobe of a multi-beam: its steering angle and its complex
// weight relative to the first (reference) lobe. The reference lobe has
// Amp = 1, Phase = 0 by convention.
type Beam struct {
	Angle float64 // steering angle (radians)
	Amp   float64 // relative amplitude δ ≥ 0
	Phase float64 // relative channel phase σ (radians)
}

// Reference returns the reference lobe toward the given angle.
func Reference(angle float64) Beam { return Beam{Angle: angle, Amp: 1, Phase: 0} }

// WeightsInto synthesizes the constructive multi-beam weight vector
//
//	w ∝ Σ_k δ_k e^{−jσ_k} w_{φ_k},  ‖w‖ = 1,
//
// where w_{φ} is the matched single beam toward φ. The e^{−jσ} conjugation
// cancels the channel's per-path phase so the receiver-side copies align
// (Eq. 10). Note δ_k and σ_k describe the *channel* of path k relative to
// the reference path; WeightsInto derives the transmit coefficients from
// them.
//
// dst receives the weight vector and scratch holds one lobe's matched beam
// at a time. Either may be nil (allocated on demand); when both are
// supplied the synthesis is allocation-free. dst must not alias a weight
// vector the caller still transmits.
func WeightsInto(u *antenna.ULA, beams []Beam, dst, scratch cmx.Vector) (cmx.Vector, error) {
	if len(beams) == 0 {
		return nil, fmt.Errorf("multibeam: no beams")
	}
	if dst == nil {
		dst = make(cmx.Vector, u.N)
	}
	if len(dst) != u.N {
		return nil, fmt.Errorf("multibeam: dst length %d != %d elements", len(dst), u.N)
	}
	for i := range dst {
		dst[i] = 0
	}
	for _, b := range beams {
		if b.Amp < 0 {
			return nil, fmt.Errorf("multibeam: negative amplitude %g", b.Amp)
		}
		coeff := cmplx.Rect(b.Amp, -b.Phase)
		scratch = u.SingleBeamInto(b.Angle, scratch)
		dst.AddScaled(coeff, scratch)
	}
	if dst.Norm() < 1e-15 {
		return nil, fmt.Errorf("multibeam: beams cancel (zero total weight)")
	}
	return dst.Normalize(), nil
}

// Optimal returns the maximum-ratio-transmission weights w = h*/‖h‖
// (Eq. 4) — the oracle beamformer that requires full per-antenna CSI,
// unobtainable on a single-RF-chain array but useful as an upper bound.
func Optimal(h cmx.Vector) (cmx.Vector, error) {
	if h.Norm() < 1e-300 {
		return nil, fmt.Errorf("multibeam: zero channel")
	}
	return h.Conj().Normalize(), nil
}

// SubArraySplit builds the Aykin et al. style multi-beam that splits the
// physical array into contiguous sub-arrays, one per lobe, instead of
// superposing full-aperture beams. It is the sub-optimal multi-beam
// baseline the paper contrasts with (§3.3): each lobe is wider (half the
// aperture per lobe for two beams) and per-lobe phase control is still
// applied. Power is split across sub-arrays proportional to amp².
func SubArraySplit(u *antenna.ULA, beams []Beam) (cmx.Vector, error) {
	if len(beams) == 0 {
		return nil, fmt.Errorf("multibeam: no beams")
	}
	if len(beams) > u.N {
		return nil, fmt.Errorf("multibeam: more beams (%d) than elements (%d)", len(beams), u.N)
	}
	w := cmx.NewVector(u.N)
	per := u.N / len(beams)
	for k, b := range beams {
		lo := k * per
		hi := lo + per
		if k == len(beams)-1 {
			hi = u.N
		}
		coeff := cmplx.Rect(b.Amp, -b.Phase)
		for n := lo; n < hi; n++ {
			// Full-array steering phase, windowed to the sub-array.
			ph := -2 * math.Pi * u.Spacing / u.Lambda * float64(n) * math.Sin(b.Angle)
			w[n] = coeff * cmplx.Exp(complex(0, -ph))
		}
	}
	if w.Norm() < 1e-15 {
		return nil, fmt.Errorf("multibeam: sub-array beams cancel")
	}
	return w.Normalize(), nil
}

// TheoreticalGain returns the SNR gain (linear) of an ideal two-beam
// constructive multi-beam over a single beam on the stronger path, for a
// two-path channel with relative amplitude delta: 1 + δ² (Eq. 9). With
// estimation errors dAmp (ratio) and dPhase (radians) on the second lobe
// the combining degrades to
//
//	gain = (1 + 2·δ·a·cos(Δσ) + δ²·a²) / (1 + a²)
//
// where a = δ·dAmp is the applied (possibly wrong) second-lobe amplitude.
// This closed form drives the Fig. 14 sensitivity surface.
func TheoreticalGain(delta, appliedAmp, phaseErr float64) float64 {
	num := 1 + 2*delta*appliedAmp*math.Cos(phaseErr) + delta*delta*appliedAmp*appliedAmp
	den := 1 + appliedAmp*appliedAmp
	return num / den
}
