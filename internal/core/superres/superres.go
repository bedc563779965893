// Package superres implements mmReliable's per-beam power extraction
// (§4.3): the single-RF-chain receiver only ever sees the superposition of
// all beams, so the per-beam amplitudes α_k are recovered from the channel
// impulse response by fitting a sparse delay-kernel (sinc) dictionary:
//
//	α̂ = argmin_α ‖h_CIR − S·α‖² + λ‖α‖²           (Eq. 23)
//
// where column k of S is the band-limited signature of a path at the k-th
// beam's delay (Eq. 22). The key trick from the paper: absolute ToF drifts
// with timing offset, but *relative* ToF between beams changes slowly, so
// the CIR is first aligned to its strongest tap and the dictionary is built
// from the known relative delays, with a small local search absorbing
// residual drift.
package superres

import (
	"fmt"
	"math"
	"math/cmplx"

	"mmreliable/internal/cmx"
	"mmreliable/internal/scratch"
)

// Config tunes the solver.
type Config struct {
	// Lambda is the L2 (ridge) regularization weight of Eq. 23. It
	// stabilizes the fit when two delays fall inside one resolution cell.
	Lambda float64
	// SearchSpan is the ± range (seconds) of the global alignment search
	// around the peak-aligned position.
	SearchSpan float64
	// SearchSteps is the number of alignment candidates tried across the
	// span (≥1; 1 disables the search).
	SearchSteps int
}

// DefaultConfig suits a 400 MHz sounder (2.5 ns resolution): ±1 sample of
// alignment search in 17 steps and mild regularization.
func DefaultConfig() Config {
	return Config{Lambda: 1e-3, SearchSpan: 2.5e-9, SearchSteps: 17}
}

// Result is the outcome of one extraction.
type Result struct {
	// Amp[k] is the complex amplitude of beam k's path in the CIR.
	Amp cmx.Vector
	// Power[k] = |Amp[k]|², the per-beam power the tracker consumes.
	Power []float64
	// BaseDelay is the fitted delay of the reference (first) path after
	// alignment, in seconds.
	BaseDelay float64
	// Residual is the relative fit residual ‖h − Sα‖/‖h‖ at the optimum.
	Residual float64
}

// EstimateDelayWS returns the sub-sample delay (seconds) of the strongest
// tap of a CIR, in [0, N·Ts), via parabolic interpolation of the magnitude
// peak. The manager uses this during establishment to learn each beam's
// absolute ToF; differences of these across beams give the relative ToFs
// that anchor the super-resolution dictionary. The magnitude scratch comes
// from ws — allocation-free when ws is non-nil, identical arithmetic either
// way.
func EstimateDelayWS(cir cmx.Vector, sampleSpacing float64, ws *scratch.Workspace) (float64, error) {
	if len(cir) == 0 {
		return 0, fmt.Errorf("superres: empty CIR")
	}
	if sampleSpacing <= 0 {
		return 0, fmt.Errorf("superres: non-positive sample spacing")
	}
	var mags []float64
	if ws != nil {
		mk := ws.Mark()
		defer ws.Release(mk)
		mags = cir.AbsInto(ws.Float(len(cir)))
	} else {
		mags = cir.Abs()
	}
	peak, best := 0, 0.0
	for i, m := range mags {
		if m > best {
			best, peak = m, i
		}
	}
	if best == 0 {
		return 0, fmt.Errorf("superres: zero CIR")
	}
	n := len(mags)
	ym := mags[(peak-1+n)%n]
	yp := mags[(peak+1)%n]
	y0 := mags[peak]
	den := 2 * (2*y0 - ym - yp)
	frac := 0.0
	if den > 1e-30 {
		frac = (yp - ym) / den
	}
	if frac > 0.5 {
		frac = 0.5
	}
	if frac < -0.5 {
		frac = -0.5
	}
	d := (float64(peak) + frac) * sampleSpacing
	span := float64(n) * sampleSpacing
	for d < 0 {
		d += span
	}
	for d >= span {
		d -= span
	}
	return d, nil
}

// RelativeDelay returns the circular difference d−ref wrapped to
// (−span/2, span/2], where span = n·Ts — the relative ToF between two
// beams' strongest taps.
func RelativeDelay(d, ref, span float64) float64 {
	x := math.Mod(d-ref, span)
	if x > span/2 {
		x -= span
	}
	if x <= -span/2 {
		x += span
	}
	return x
}

// PowerRatioDB returns the power of beam k relative to beam ref in dB.
func (r Result) PowerRatioDB(k, ref int) float64 {
	if r.Power[ref] <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(r.Power[k]/r.Power[ref])
}

// RelativePhase returns the phase of Amp[k] relative to Amp[ref].
func (r Result) RelativePhase(k, ref int) float64 {
	return cmplx.Phase(r.Amp[k] / r.Amp[ref])
}
