package superres

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"

	"mmreliable/internal/cmx"
	"mmreliable/internal/dsp"
	"mmreliable/internal/scratch"
)

// wsPool recycles throwaway workspaces for ExtractInto(…, nil) callers, so
// a nil workspace stays cheap without requiring every caller to thread
// one.
var wsPool = sync.Pool{New: func() any { return scratch.New() }}

// phasorReseed bounds unit-phasor recurrence drift: the recurrence is
// re-seeded with an exact cmplx.Exp every this many steps, so accumulated
// rounding stays ≤ 64·ε (the same contract as the factored wideband
// channel kernel).
const phasorReseed = 64

// ExtractInto recovers per-beam complex amplitudes from a measured CIR.
// relDelays[k] is the delay of beam k's path relative to the first
// (reference) path — relDelays[0] must be 0; sampleSpacing is the CIR
// sample period (1/bandwidth). The CIR is circularly aligned so its
// strongest tap sits at index 0, then a grid of base delays around 0 is
// searched; at each candidate the ridge system (Eq. 23) is solved and the
// best-residual solution wins.
//
// The delay dictionary is a pure-delay family — column k is the IFFT of
// K_τ[m] = e^{−j2πf_m τ} over the centered subcarrier grid
// f_m = −B/2 + (m+½)B/N — so by Parseval every candidate correlation
// kernel(τ)ᴴ·aligned is the O(N) frequency-domain sum (1/N)·Σ_m A[m]·
// e^{j2πf_m τ}, where A = FFT(aligned); no dictionary column is ever
// synthesized in the time domain. The alignment rotation itself is a
// frequency-domain phase ramp, so the CIR is never rotated either. The
// dictionary Gram has a closed geometric-series form, is built exactly
// Hermitian, ridged once, and Cholesky-factored once per call; every
// alignment candidate then costs one Horner pass per ramped spectrum row
// (one fewer in the coarse passes of hypotheses j > 0, whose row j repeats
// hypothesis 0's row 0) plus a K×K triangular solve. See DESIGN.md
// "Frequency-domain super-resolution".
//
// ws supplies all scratch; pass the per-worker workspace to run with zero
// allocations in steady state. ws may be nil, in which case a pooled
// workspace is borrowed for the duration of the call and only the two
// small result buffers are heap-allocated (the caller owns them
// indefinitely). With a non-nil ws, Result.Amp and Result.Power are
// checked out of ws *before* ExtractInto's own mark, so they remain valid
// after it returns — but they die at the caller's enclosing Release/Reset
// of ws. Callers that retain the result past that point must copy it.
//
// len(cir) must be a power of two (the radix-2 FFT the spectrum needs, and
// the only size nr.NewSounder accepts); any other length is an error.
func ExtractInto(cir cmx.Vector, relDelays []float64, sampleSpacing float64, cfg Config, ws *scratch.Workspace) (Result, error) {
	return extract(cir, relDelays, sampleSpacing, cfg, ws, true)
}

// extract is ExtractInto with the shared diagonal switchable: with
// shareDiag false every hypothesis evaluates every row, the reference the
// shared form is pinned against.
func extract(cir cmx.Vector, relDelays []float64, sampleSpacing float64, cfg Config, ws *scratch.Workspace, shareDiag bool) (Result, error) {
	if err := validate(cir, relDelays, sampleSpacing); err != nil {
		return Result{}, err
	}
	n := len(cir)
	if !dsp.IsPow2(n) {
		return Result{}, fmt.Errorf("superres: CIR length %d is not a power of two", n)
	}
	bw := 1 / sampleSpacing
	b2 := cir.Norm2()
	if b2 == 0 {
		return Result{}, fmt.Errorf("superres: zero CIR")
	}
	norm := math.Sqrt(b2)
	peak := peakIndex(cir)
	k := len(relDelays)

	own := ws
	var amp cmx.Vector
	var pow []float64
	if own == nil {
		// No caller workspace: borrow a pooled one for the transient
		// scratch (checkouts are zeroed, so pooling cannot leak state into
		// results) and heap-allocate only the two small result buffers,
		// which the caller owns indefinitely.
		own = wsPool.Get().(*scratch.Workspace)
		own.Reset()
		defer wsPool.Put(own)
		amp = make(cmx.Vector, k)
		pow = make([]float64, k)
	} else {
		// Result buffers are checked out before the mark so they survive
		// the release of the transient scratch below.
		amp = cmx.Vector(own.Complex(k))
		pow = own.Float(k)
	}
	mk := own.Mark()
	defer own.Release(mk)

	// A[m] = FFT(cir)[m]·e^{j2π·peak·m/N} — the spectrum of the CIR
	// circularly aligned so its strongest tap sits at index 0.
	a := cmx.Vector(own.Complex(n))
	copy(a, cir)
	if err := dsp.FFT(a); err != nil {
		return Result{}, err // unreachable: length is a power of two
	}
	applyRotationRamp(a, peak)

	// Ak[k] = A ∘ e^{j2πf_m·rel_k}: the per-path ramped spectra, computed
	// once; every candidate correlation is then a plain product sum with
	// the shared base-delay ramp.
	ak := own.Complex(k * n)
	for i, rd := range relDelays {
		row := cmx.Vector(ak[i*n : (i+1)*n])
		copy(row, a)
		applyFreqRamp(row, bw, rd)
	}

	// Closed-form Gram (exactly Hermitian), ridged in place, hoisted
	// Cholesky. The un-ridged Gram itself is never needed: the residual
	// below uses the normal-equations identity instead of a G·α product.
	ridged := cmx.Matrix{Rows: k, Cols: k, Data: own.Complex(k * k)}
	delayGramInto(&ridged, relDelays, bw, n)
	if cfg.Lambda > 0 {
		for i := 0; i < k; i++ {
			ridged.Set(i, i, ridged.At(i, i)+complex(cfg.Lambda, 0))
		}
	}
	chol := cmx.CholeskyWith(own.Complex(k * k))
	useChol := chol.Factor(&ridged) == nil

	corr := cmx.Vector(own.Complex(k))
	alpha := cmx.Vector(own.Complex(k))
	// diag[s] keeps hypothesis 0's row-0 correlation at coarse step s.
	diag := cmx.Vector(own.Complex(searchSteps))
	invN := complex(1/float64(n), 0)
	nf := float64(n)
	rampRate := 2 * math.Pi * bw / nf
	f0Rate := 2 * math.Pi * (-bw/2 + 0.5*bw/nf)

	// fit evaluates one alignment candidate, leaving the solution in
	// alpha. The correlation (1/N)·Σ_m row[m]·e^{j2πf_m·base} is the
	// polynomial Σ_m row[m]·z^m at z = e^{j2πB·base/N}, times the
	// prefactor pre = e^{j2πf_0·base}/N; polyEval evaluates it by
	// four-chain split Horner. Row shared (−1 for none) is not evaluated:
	// the caller has already put its correlation in corr. Reported residual
	// uses the normal-equations identity: (G+λI)α = c gives αᴴGα = Re(αᴴc)
	// − λ‖α‖², hence ‖b − Kα‖² = ‖b‖² − Re(αᴴc) − λ‖α‖² — no K-vector Gram
	// product per candidate.
	fit := func(base float64, pre complex128, shared int) (float64, bool) {
		z := expi(rampRate * base)
		for i := 0; i < k; i++ {
			if i != shared {
				corr[i] = pre * polyEval(ak[i*n:(i+1)*n], z)
			}
		}
		if useChol {
			chol.SolveInto(alpha, corr)
		} else {
			// Degenerate ridged Gram (λ=0 with coincident delays): fall
			// back to pivoted Gaussian elimination per candidate; a
			// singular candidate is skipped, preserving the "every
			// alignment candidate was degenerate" error path.
			x, err := cmx.Solve(&ridged, corr)
			if err != nil {
				return 0, false
			}
			copy(alpha, x)
		}
		res2 := b2 - real(alpha.Hdot(corr)) - cfg.Lambda*alpha.Norm2()
		if res2 < 0 {
			res2 = 0
		}
		return math.Sqrt(res2) / norm, true
	}

	bestRes, bestBase := math.Inf(1), 0.0
	// search fits searchSteps candidates across center ± span. hyp is the
	// alignment hypothesis of a coarse pass, −1 for the fine pass. The
	// prefactor advances by one phasor per step; z stays an exact
	// exponential per candidate, since Horner raises it to the (N−1)-th
	// power and a stepped z would carry its drift that far.
	search := func(center, span float64, hyp int) {
		lo, delta := center-span, 2*span/(searchSteps-1)
		pre := expi(f0Rate*lo) * invN
		step := expi(f0Rate * delta)
		for s := 0; s < searchSteps; s++ {
			if s > 0 {
				pre *= step
			}
			base := center - span + 2*span*float64(s)/(searchSteps-1)
			if hyp < 0 && base == bestBase {
				// Already fitted: the same base gives the same residual,
				// which cannot beat itself.
				continue
			}
			// Hypothesis j's row j at step s correlates at rel_j + base =
			// −span + s·delta, hypothesis 0's row 0 at the same step: both
			// are C(t_s), so it is taken from diag instead of evaluated.
			shared := -1
			if shareDiag && hyp > 0 {
				shared = hyp
				corr[hyp] = diag[s]
			}
			r, ok := fit(base, pre, shared)
			if hyp == 0 {
				diag[s] = corr[0]
			}
			if ok && r < bestRes {
				bestRes, bestBase = r, base
				copy(amp, alpha)
			}
		}
	}
	// Same hypothesis structure as the time-domain solver: one coarse pass
	// per "the strongest tap is beam j" alignment hypothesis (hypothesis 0
	// first, which fills diag), then a fine pass around the winner.
	for j, rd := range relDelays {
		search(-rd, searchSpan, j)
	}
	if !math.IsInf(bestRes, 1) {
		search(bestBase, 2*searchSpan/(searchSteps-1), -1)
	}
	if math.IsInf(bestRes, 1) {
		return Result{}, fmt.Errorf("superres: every alignment candidate was degenerate")
	}
	for i, x := range amp {
		pow[i] = real(x)*real(x) + imag(x)*imag(x)
	}
	return Result{Amp: amp, Power: pow, BaseDelay: bestBase, Residual: bestRes}, nil
}

// polyEval returns Σ_m r[m]·z^m by split Horner: four independent chains
// in z⁴ (P(z) = E₀(z⁴) + z·E₁(z⁴) + z²·(E₂(z⁴) + z·E₃(z⁴))), so the serial
// multiply-add dependency is a quarter as long as plain Horner's. Lengths
// that are not a multiple of four (only n < 4 among the power-of-two CIR
// lengths) take plain Horner.
func polyEval(r []complex128, z complex128) complex128 {
	n := len(r)
	if n%4 != 0 {
		var p complex128
		for m := n - 1; m >= 0; m-- {
			p = p*z + r[m]
		}
		return p
	}
	z2 := z * z
	z4 := z2 * z2
	var e0, e1, e2, e3 complex128
	for m := n - 4; m >= 0; m -= 4 {
		q := r[m : m+4 : m+4]
		e0 = e0*z4 + q[0]
		e1 = e1*z4 + q[1]
		e2 = e2*z4 + q[2]
		e3 = e3*z4 + q[3]
	}
	return (e0 + z*e1) + z2*(e2+z*e3)
}

// validate holds ExtractInto's argument checks.
func validate(cir cmx.Vector, relDelays []float64, sampleSpacing float64) error {
	if len(cir) == 0 {
		return fmt.Errorf("superres: empty CIR")
	}
	if len(relDelays) == 0 {
		return fmt.Errorf("superres: no relative delays")
	}
	if relDelays[0] != 0 {
		return fmt.Errorf("superres: relDelays[0] must be 0, got %g", relDelays[0])
	}
	// Non-reference delays may be negative (a path can arrive before the
	// strongest one): the CIR is circular, so the dictionary kernel simply
	// wraps.
	if len(relDelays) > len(cir) {
		return fmt.Errorf("superres: more paths (%d) than CIR taps (%d)", len(relDelays), len(cir))
	}
	if sampleSpacing <= 0 {
		return fmt.Errorf("superres: non-positive sample spacing")
	}
	return nil
}

// expi returns e^{jθ} = (cos θ, sin θ). It is bit-identical to
// cmplx.Exp with a purely imaginary argument — which computes and
// multiplies by e^0 = 1 — without paying for the real exponential
// (measurable: the alignment search evaluates two of these per
// candidate).
func expi(theta float64) complex128 {
	s, c := math.Sincos(theta)
	return complex(c, s)
}

// applyFreqRamp multiplies dst[m] *= e^{j2πf_m·tau} over the centered
// subcarrier grid f_m = −B/2 + (m+½)B/N, via the unit-phasor recurrence
// with exact re-seeding every phasorReseed steps.
func applyFreqRamp(dst cmx.Vector, bw, tau float64) {
	n := float64(len(dst))
	step := expi(2 * math.Pi * bw * tau / n)
	var p complex128
	for m := range dst {
		if m%phasorReseed == 0 {
			f := -bw/2 + (float64(m)+0.5)*bw/n
			p = expi(2 * math.Pi * f * tau)
		}
		dst[m] *= p
		p *= step
	}
}

// peakIndex returns the index cmx.Vector.MaxAbs reports — the first index
// of the largest magnitude — without a hypot per tap: taps are ranked by
// squared magnitude, and cmplx.Abs decides only when the squares of the
// leader and the candidate are within peakTieTol of each other or outside
// [peakSqMin, peakSqMax]. Inside that range each square is within 3u
// (u = 2⁻⁵³) of the exact |x|², and hypot is within 4u of the exact |x|,
// so squares that differ by more than peakTieTol = 2⁻⁴⁰ (relative) order
// the hypots the same way, strictly. Ties, NaN and overflowing or
// denormal squares all fall through to MaxAbs's own comparison.
func peakIndex(v cmx.Vector) int {
	const (
		peakTieTol = 0x1p-40
		peakSqMin  = 0x1p-1000
		peakSqMax  = 0x1p1000
	)
	if len(v) == 0 {
		return -1
	}
	best, bestSq := 0, sqAbs(v[0])
	for i := 1; i < len(v); i++ {
		s := sqAbs(v[i])
		if s >= peakSqMin && s <= peakSqMax && bestSq >= peakSqMin && bestSq <= peakSqMax {
			if s > bestSq*(1+peakTieTol) {
				best, bestSq = i, s
				continue
			}
			if s < bestSq*(1-peakTieTol) {
				continue
			}
		}
		if cmplx.Abs(v[i]) > cmplx.Abs(v[best]) {
			best, bestSq = i, s
		}
	}
	return best
}

func sqAbs(x complex128) float64 { return real(x)*real(x) + imag(x)*imag(x) }

// applyRotationRamp multiplies dst[m] *= e^{j2π·shift·m/N} — the spectrum
// of a circular rotation by −shift samples. The re-seed phase is reduced
// modulo N in integers, so it stays exact for any shift.
func applyRotationRamp(dst cmx.Vector, shift int) {
	n := len(dst)
	step := expi(2 * math.Pi * float64(shift) / float64(n))
	var p complex128
	for m := range dst {
		if m%phasorReseed == 0 {
			r := (shift * m) % n
			p = expi(2 * math.Pi * float64(r) / float64(n))
		}
		dst[m] *= p
		p *= step
	}
}

// delayGramInto fills g with the Gram matrix of the pure-delay dictionary
// at the given relative delays: G[a][b] = kernel(τ_a)ᴴ·kernel(τ_b) =
// (1/N)·Σ_m e^{j2πf_m(τ_a−τ_b)}, a geometric series with the closed form
// used by delayGramEntry. Only the strict lower triangle is computed; the
// upper is mirrored by conjugation and the diagonal set to exactly 1, so
// the result is exactly Hermitian (a requirement of the Cholesky
// factorization).
func delayGramInto(g *cmx.Matrix, relDelays []float64, bw float64, n int) {
	for a := range relDelays {
		g.Set(a, a, 1)
		for b := 0; b < a; b++ {
			v := delayGramEntry(bw, n, relDelays[a]-relDelays[b])
			g.Set(a, b, v)
			g.Set(b, a, cmplx.Conj(v))
		}
	}
}

// delayGramEntry evaluates (1/N)·Σ_{m=0}^{N−1} e^{j2πf_m·Δ} in closed
// form: lead·(e^{j2πBΔ}−1)/(e^{j2πBΔ/N}−1)/N with lead =
// e^{j2π(−B/2+B/(2N))Δ}, degenerating to lead when the ratio is 1 (Δ a
// multiple of N/B, where the sum is exactly N·lead).
func delayGramEntry(bw float64, n int, delta float64) complex128 {
	nf := float64(n)
	lead := expi(2 * math.Pi * (-bw/2 + bw/(2*nf)) * delta)
	den := expi(2*math.Pi*bw*delta/nf) - 1
	if cmplx.Abs(den) < 1e-12 {
		return lead
	}
	num := expi(2*math.Pi*bw*delta) - 1
	return lead * num / den * complex(1/nf, 0)
}
