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

// KernelIntoFunc writes the CIR signature of a unit path at the given
// absolute delay into dst and returns it (dst may be nil, in which case the
// kernel allocates). nr.(*Sounder).DelayKernelInto satisfies this; the
// alignment search calls it hundreds of times per fit on one reused scratch
// column.
type KernelIntoFunc func(tau float64, dst cmx.Vector) cmx.Vector

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

// ExtractKernel is the direct time-domain solver for arbitrary dictionary
// kernels: every candidate correlation synthesizes the dictionary column
// kernel(base+rel_k) through one reused scratch buffer and inner-products
// it against the aligned CIR. It is the reference implementation the
// frequency-domain ExtractInto is pinned against (within 1e-12; see
// TestFreqDomainMatchesTimeDomain) and the fallback ExtractInto takes when
// the CIR length is not a power of two. Callers with the standard sounder
// kernel use ExtractInto.
func ExtractKernel(cir cmx.Vector, relDelays []float64, kernel KernelIntoFunc, sampleSpacing float64, cfg Config) (Result, error) {
	if err := validate(cir, relDelays, sampleSpacing); err != nil {
		return Result{}, err
	}
	// Align: rotate the strongest tap to index 0. The unknown absolute ToF
	// then lives within ± a fraction of a sample, covered by the search.
	_, peak := cir.MaxAbs()
	aligned := rotate(cir, -peak)

	steps := cfg.SearchSteps
	if steps < 1 {
		steps = 1
	}
	norm := aligned.Norm()
	if norm == 0 {
		return Result{}, fmt.Errorf("superres: zero CIR")
	}
	// The dictionary Gram matrix is invariant under a common delay shift of
	// all columns (a pure-delay kernel's inner products depend only on
	// delay differences), so it is computed once and reused across every
	// alignment candidate; each candidate then only needs the K correlation
	// values Aᴴb and a K×K solve, with the residual evaluated as
	// ‖b‖² − 2·Re(αᴴc) + αᴴGα.
	gram := func() *cmx.Matrix {
		cols := make([]cmx.Vector, len(relDelays))
		for k, rd := range relDelays {
			cols[k] = kernel(rd, nil) // distinct columns: no scratch sharing
		}
		return cmx.FromColumns(cols).Gram()
	}()
	ridged := gram.Clone()
	if cfg.Lambda > 0 {
		for i := 0; i < ridged.Rows; i++ {
			ridged.Set(i, i, ridged.At(i, i)+complex(cfg.Lambda, 0))
		}
	}
	b2 := aligned.Norm2()
	// One column scratch and one correlation buffer shared by every
	// alignment candidate (the solver copies what it keeps).
	col := make(cmx.Vector, len(cir))
	corr := make(cmx.Vector, len(relDelays))
	fit := func(base float64) (Result, bool) {
		for k, rd := range relDelays {
			corr[k] = kernel(base+rd, col).Hdot(aligned)
		}
		alpha, err := cmx.Solve(ridged, corr)
		if err != nil {
			return Result{}, false
		}
		res2 := b2 - 2*real(alpha.Hdot(corr)) + real(alpha.Hdot(gram.MulVec(alpha)))
		if res2 < 0 {
			res2 = 0
		}
		return Result{Amp: alpha, BaseDelay: base, Residual: math.Sqrt(res2) / norm}, true
	}
	search := func(center, span float64) Result {
		best := Result{Residual: math.Inf(1)}
		for s := 0; s < steps; s++ {
			base := center
			if steps > 1 {
				base = center - span + 2*span*float64(s)/float64(steps-1)
			}
			if r, ok := fit(base); ok && r.Residual < best.Residual {
				best = r
			}
		}
		return best
	}
	// The aligned CIR has its strongest tap at index 0, but which *path*
	// that tap belongs to is unknown (a blocked reference path may no
	// longer be the strongest). Try one alignment hypothesis per beam —
	// "the strongest tap is beam j", i.e. a global base delay of −rel[j] —
	// with a coarse pass over ±SearchSpan and a fine pass around the
	// winner so fractional-sample timing drift (e.g. an SFO-induced shift)
	// is matched to well under the grid step.
	best := Result{Residual: math.Inf(1)}
	for _, rd := range relDelays {
		if cand := search(-rd, cfg.SearchSpan); cand.Residual < best.Residual {
			best = cand
		}
	}
	if steps > 1 && !math.IsInf(best.Residual, 1) {
		fineSpan := 2 * cfg.SearchSpan / float64(steps-1)
		if fine := search(best.BaseDelay, fineSpan); fine.Residual < best.Residual {
			best = fine
		}
	}
	if math.IsInf(best.Residual, 1) {
		return Result{}, fmt.Errorf("superres: every alignment candidate was degenerate")
	}
	best.Power = make([]float64, len(best.Amp))
	for k, a := range best.Amp {
		best.Power[k] = real(a)*real(a) + imag(a)*imag(a)
	}
	return best, nil
}

// rotate circularly shifts v by k positions (positive k moves content to
// higher indices).
func rotate(v cmx.Vector, k int) cmx.Vector {
	n := len(v)
	out := make(cmx.Vector, n)
	for i := range v {
		j := ((i+k)%n + n) % n
		out[j] = v[i]
	}
	return out
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
