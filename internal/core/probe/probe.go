// Package probe implements mmReliable's low-overhead estimator for the
// per-beam relative channel (§3.3, Eq. 11–14). Hardware CFO/SFO makes probe
// phases incomparable across probes, so the estimator works from channel
// MAGNITUDES alone:
//
//  1. From beam training, the per-beam powers p1 = |h1|², p2 = |h2|² are
//     already known.
//  2. Two extra probes measure the combined power under 2-beam patterns
//     with relative phase 0 and π/2:
//     p3 = |h1 + h2|²,  p4 = |h1 + e^{jπ/2}h2|².
//  3. Treating h1 as the positive-real reference, Eq. 12 recovers
//     h2/h1 = δ·e^{jσ} in closed form.
//
// For wideband channels the recovery runs per subcarrier and Eq. 14 fuses
// the per-subcarrier ratios into a single (δ, σ).
package probe

import (
	"fmt"
	"math"
	"math/cmplx"

	"mmreliable/internal/antenna"
	"mmreliable/internal/cmx"
	"mmreliable/internal/core/multibeam"
	"mmreliable/internal/scratch"
)

// Prober issues one channel sounding with the given TX weights and writes
// the per-subcarrier CSI estimate into dst (allocating when dst is nil),
// returning it. Implementations wrap nr.Sounder plus the live channel;
// probes are counted by the implementation for overhead accounting.
type Prober interface {
	ProbeInto(w, dst cmx.Vector) cmx.Vector
}

// Estimate is the relative channel of one beam with respect to the
// reference beam.
type Estimate struct {
	Delta float64 // amplitude ratio δ ≥ 0
	Sigma float64 // phase σ (radians)
}

// Result is the outcome of a full multi-beam estimation round.
type Result struct {
	// Relative[k] is the channel of angles[k+1] relative to angles[0].
	Relative []Estimate
	// PerBeamPower[k] is the measured single-beam power of angles[k].
	PerBeamPower []float64
	// Probes is the number of soundings issued in this round.
	Probes int
}

// BeamsInto converts the result into a constructive multi-beam lobe list,
// appending into dst's storage (dst may be nil), so a caller that keeps a
// lobe buffer across rounds stays off the allocator.
func (r Result) BeamsInto(angles []float64, dst []multibeam.Beam) ([]multibeam.Beam, error) {
	if len(angles) != len(r.Relative)+1 {
		return nil, fmt.Errorf("probe: %d angles vs %d relative estimates", len(angles), len(r.Relative))
	}
	beams := append(dst[:0], multibeam.Reference(angles[0]))
	for k, e := range r.Relative {
		beams = append(beams, multibeam.Beam{Angle: angles[k+1], Amp: e.Delta, Phase: e.Sigma})
	}
	return beams, nil
}

// combinedBeam builds the probing pattern w(φ_ref, φ_k, 1, ψ) in dst: the
// normalized sum of the two matched beams with coefficient e^{jψ} on the
// second, with tmp as the second-beam staging buffer (both allocated when
// nil). It also returns the squared norm of the unnormalized sum (needed to
// undo the TRP normalization when converting measured power back to
// |h1+e^{jψ}h2|²).
func combinedBeam(u *antenna.ULA, phiRef, phiK, psi float64, dst, tmp cmx.Vector) (cmx.Vector, float64) {
	sum := u.SingleBeamInto(phiRef, dst)
	sum = sum.AddScaled(cmplx.Exp(complex(0, psi)), u.SingleBeamInto(phiK, tmp))
	n2 := sum.Norm2()
	return sum.Normalize(), n2
}

// EstimatePairWithDelayWS estimates the relative channel of the beam at
// phiK with respect to the reference beam at phiRef, given their
// per-subcarrier single-beam magnitudes m1, m2 (|h| per subcarrier, from
// training probes). It issues exactly two probes. The wideband fusion of
// Eq. 14 reduces the per-subcarrier estimates to one (δ, σ).
//
// When the excess delay Δτ of the probed path (relative to the reference)
// is known — mmReliable learns it from the training CIR and tracks it via
// super-resolution — the per-subcarrier ratio's linear phase ramp
// e^{−j2πfΔτ} is removed before the Eq. 14 fusion. Without this, plain
// fusion only works while 2π·B·Δτ ≲ 1 rad (the regime of the paper's
// Fig. 15c); with it, wideband 400 MHz probing stays unbiased at any
// realistic delay spread. relDelay is Δτ in seconds; bandwidthHz is the
// sounder bandwidth (both 0 to disable compensation).
//
// Every working buffer — both probing patterns, both CSI landings, and the
// per-subcarrier channel reconstruction — comes from ws under a
// mark/release pair, so a steady-state refinement round runs without
// touching the allocator. ws may be nil (plain allocation); the arithmetic
// and the probe/randomness order are identical either way.
func EstimatePairWithDelayWS(p Prober, u *antenna.ULA, phiRef, phiK float64, m1, m2 []float64, relDelay, bandwidthHz float64, ws *scratch.Workspace) (Estimate, error) {
	if len(m1) != len(m2) || len(m1) == 0 {
		return Estimate{}, fmt.Errorf("probe: magnitude length mismatch %d vs %d", len(m1), len(m2))
	}
	var wa, wb, wtmp, ca, cb, h1, h2 cmx.Vector
	if ws != nil {
		mk := ws.Mark()
		defer ws.Release(mk)
		wa, wb = cmx.Vector(ws.Complex(u.N)), cmx.Vector(ws.Complex(u.N))
		wtmp = cmx.Vector(ws.Complex(u.N))
		ca, cb = cmx.Vector(ws.Complex(len(m1))), cmx.Vector(ws.Complex(len(m1)))
		h1, h2 = cmx.Vector(ws.Complex(len(m1))), cmx.Vector(ws.Complex(len(m1)))
	} else {
		h1 = make(cmx.Vector, len(m1))
		h2 = make(cmx.Vector, len(m1))
	}
	w3, n3 := combinedBeam(u, phiRef, phiK, 0, wa, wtmp)
	w4, n4 := combinedBeam(u, phiRef, phiK, math.Pi/2, wb, wtmp)
	csi3 := p.ProbeInto(w3, ca)
	csi4 := p.ProbeInto(w4, cb)
	if len(csi3) != len(m1) || len(csi4) != len(m1) {
		return Estimate{}, fmt.Errorf("probe: CSI length %d != %d", len(csi3), len(m1))
	}
	// Reconstruct per-subcarrier h1 (reference, positive real) and h2.
	// h1/h2 are zeroed (fresh make or zeroed workspace checkout), so dead
	// reference subcarriers skipped below stay at exactly zero.
	for f := range m1 {
		p1 := m1[f] * m1[f]
		p2 := m2[f] * m2[f]
		// Undo the probing pattern's unit-norm scaling: measured power is
		// |h1+e^{jψ}h2|²/n², so multiply back by n².
		a3 := cmplx.Abs(csi3[f])
		a4 := cmplx.Abs(csi4[f])
		p3 := a3 * a3 * n3
		p4 := a4 * a4 * n4
		if p1 <= 0 {
			continue // dead subcarrier on the reference: skip
		}
		sq := math.Sqrt(p1)
		re := (p3 - p1 - p2) / (2 * sq)
		im := (p1 + p2 - p4) / (2 * sq)
		h1[f] = complex(sq, 0)
		h2[f] = complex(re, im)
		if relDelay != 0 && bandwidthHz != 0 {
			// Remove the known linear phase ramp of the excess delay.
			freq := (float64(f)+0.5)/float64(len(m1))*bandwidthHz - bandwidthHz/2
			h2[f] *= cmplx.Exp(complex(0, 2*math.Pi*freq*relDelay))
		}
	}
	// Wideband fusion (Eq. 14): δ̂e^{jσ̂} = ⟨h1, h2⟩ / ‖h1‖².
	den := h1.Norm2()
	if den <= 0 {
		return Estimate{}, fmt.Errorf("probe: reference beam carries no power")
	}
	ratio := h1.Hdot(h2) / complex(den, 0)
	return Estimate{Delta: cmplx.Abs(ratio), Sigma: cmplx.Phase(ratio)}, nil
}

// PhaseStability returns the per-subcarrier phase of the ratio h2/h1
// reconstructed by EstimatePairWithDelayWS-style probing — used to verify
// that the optimal per-beam phase is stable across the band (Fig. 15c). It
// reuses the same two probes' CSI.
func PhaseStability(u *antenna.ULA, phiRef, phiK float64, m1, m2 []float64, csi3, csi4 cmx.Vector) []float64 {
	_, n3 := combinedBeam(u, phiRef, phiK, 0, nil, nil)
	_, n4 := combinedBeam(u, phiRef, phiK, math.Pi/2, nil, nil)
	out := make([]float64, len(m1))
	for f := range m1 {
		p1 := m1[f] * m1[f]
		p2 := m2[f] * m2[f]
		a3 := cmplx.Abs(csi3[f])
		a4 := cmplx.Abs(csi4[f])
		p3 := a3 * a3 * n3
		p4 := a4 * a4 * n4
		if p1 <= 0 {
			continue
		}
		sq := math.Sqrt(p1)
		out[f] = cmplx.Phase(complex((p3-p1-p2)/(2*sq), (p1+p2-p4)/(2*sq)))
	}
	return out
}
