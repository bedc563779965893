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
// alignment candidate then costs one phasor-ramp pass over the spectrum
// plus a K×K triangular solve. See DESIGN.md "Frequency-domain
// super-resolution".
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
// When len(cir) is not a power of two (no radix-2 FFT), the call falls
// back to the direct time-domain solver with the closed-form delay
// kernel; results agree with the fast path to ~1e-12.
func ExtractInto(cir cmx.Vector, relDelays []float64, sampleSpacing float64, cfg Config, ws *scratch.Workspace) (Result, error) {
	if err := validate(cir, relDelays, sampleSpacing); err != nil {
		return Result{}, err
	}
	n := len(cir)
	bw := 1 / sampleSpacing
	if !dsp.IsPow2(n) {
		return ExtractKernel(cir, relDelays, func(tau float64, dst cmx.Vector) cmx.Vector {
			return delayKernelInto(bw, n, tau, dst)
		}, sampleSpacing, cfg)
	}
	b2 := cir.Norm2()
	if b2 == 0 {
		return Result{}, fmt.Errorf("superres: zero CIR")
	}
	norm := math.Sqrt(b2)
	_, peak := cir.MaxAbs()
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
	// The generic (K = 1, K ≥ 4) candidate path correlates through the
	// planar DSP kernel, which wants split rows; K = 2/3 keep their even/odd
	// Horner specializations below and never pay for the split.
	var akRe, akIm []float64
	kern := dsp.Active()
	if k != 2 && k != 3 {
		akRe, akIm = own.Float(k*n), own.Float(k*n)
		cmx.Split(ak, akRe, akIm)
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
	invN := complex(1/float64(n), 0)
	nf := float64(n)
	rampRate := 2 * math.Pi * bw / nf

	// fit evaluates one alignment candidate, leaving the solution in
	// alpha. The correlation (1/N)·Σ_m row[m]·e^{j2πf_m·base} is the
	// polynomial Σ_m row[m]·z^m at z = e^{j2πB·base/N}, up to the scalar
	// prefactor e^{j2πf_0·base}/N — the common K=2/3 cases evaluate it by
	// even/odd-split Horner (P(z) = E(z²) + z·O(z²)): no per-tap phasor
	// recurrence, 2K independent dependency chains, and only two complex
	// exponentials per candidate. Accuracy matches the reseeded-phasor
	// reference to a few n·ε (pinned by the FD-vs-TD property tests).
	// Reported residual uses the normal-equations identity: (G+λI)α = c
	// gives αᴴGα = Re(αᴴc) − λ‖α‖², hence ‖b − Kα‖² = ‖b‖² − Re(αᴴc) −
	// λ‖α‖² — no K-vector Gram product per candidate.
	fit := func(base float64) (float64, bool) {
		z := expi(rampRate * base)
		pre := expi(2*math.Pi*(-bw/2+0.5*bw/nf)*base) * invN
		switch k {
		case 2:
			r0, r1 := ak[0:n:n], ak[n:2*n:2*n]
			z2 := z * z
			var e0, o0, e1, o1 complex128
			for m := n - 2; m >= 0; m -= 2 {
				e0 = e0*z2 + r0[m]
				o0 = o0*z2 + r0[m+1]
				e1 = e1*z2 + r1[m]
				o1 = o1*z2 + r1[m+1]
			}
			corr[0] = pre * (e0 + z*o0)
			corr[1] = pre * (e1 + z*o1)
		case 3:
			r0, r1, r2 := ak[0:n:n], ak[n:2*n:2*n], ak[2*n:3*n:3*n]
			z2 := z * z
			var e0, o0, e1, o1, e2, o2 complex128
			for m := n - 2; m >= 0; m -= 2 {
				e0 = e0*z2 + r0[m]
				o0 = o0*z2 + r0[m+1]
				e1 = e1*z2 + r1[m]
				o1 = o1*z2 + r1[m+1]
				e2 = e2*z2 + r2[m]
				o2 = o2*z2 + r2[m+1]
			}
			corr[0] = pre * (e0 + z*o0)
			corr[1] = pre * (e1 + z*o1)
			corr[2] = pre * (e2 + z*o2)
		default:
			// corr[i] = (1/N)·Σ_m row[m]·e^{j(θ₀+m·Δθ)} with θ₀ the first
			// subcarrier's phase — a kernel PhasorDot per planar row.
			theta0 := 2 * math.Pi * (-bw/2 + 0.5*bw/nf) * base
			dTheta := rampRate * base
			for i := 0; i < k; i++ {
				sRe, sIm := kern.PhasorDot(akRe[i*n:(i+1)*n], akIm[i*n:(i+1)*n], theta0, dTheta)
				corr[i] = complex(sRe, sIm) * invN
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

	steps := cfg.SearchSteps
	if steps < 1 {
		steps = 1
	}
	bestRes, bestBase := math.Inf(1), 0.0
	try := func(base float64) {
		if r, ok := fit(base); ok && r < bestRes {
			bestRes, bestBase = r, base
			copy(amp, alpha)
		}
	}
	search := func(center, span float64) {
		for s := 0; s < steps; s++ {
			base := center
			if steps > 1 {
				base = center - span + 2*span*float64(s)/float64(steps-1)
			}
			try(base)
		}
	}
	// Same hypothesis structure as the time-domain solver: one coarse pass
	// per "the strongest tap is beam j" alignment hypothesis, then a fine
	// pass around the winner.
	for _, rd := range relDelays {
		search(-rd, cfg.SearchSpan)
	}
	if steps > 1 && !math.IsInf(bestRes, 1) {
		search(bestBase, 2*cfg.SearchSpan/float64(steps-1))
	}
	if math.IsInf(bestRes, 1) {
		return Result{}, fmt.Errorf("superres: every alignment candidate was degenerate")
	}
	for i, x := range amp {
		pow[i] = real(x)*real(x) + imag(x)*imag(x)
	}
	return Result{Amp: amp, Power: pow, BaseDelay: bestBase, Residual: bestRes}, nil
}

// validate holds the argument checks shared by ExtractInto and ExtractKernel.
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

// fillFreqRamp sets dst[m] = e^{j2πf_m·tau} over the centered subcarrier
// grid f_m = −B/2 + (m+½)B/N, via the unit-phasor recurrence with exact
// re-seeding every phasorReseed steps.
func fillFreqRamp(dst cmx.Vector, bw, tau float64) {
	n := float64(len(dst))
	step := expi(2 * math.Pi * bw * tau / n)
	var p complex128
	for m := range dst {
		if m%phasorReseed == 0 {
			f := -bw/2 + (float64(m)+0.5)*bw/n
			p = expi(2 * math.Pi * f * tau)
		}
		dst[m] = p
		p *= step
	}
}

// applyFreqRamp multiplies dst[m] *= e^{j2πf_m·tau} (same grid and
// recurrence as fillFreqRamp).
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

// delayKernelInto writes the time-domain CIR signature of a unit path at
// delay tau — the IFFT of e^{−j2πf_k·tau} over the centered subcarrier
// grid — into dst (allocated when nil). It mirrors the sounder's
// closed-form delay kernel so the non-power-of-two fallback shares its
// exact rounding.
func delayKernelInto(bw float64, n int, tau float64, dst cmx.Vector) cmx.Vector {
	if dst == nil {
		dst = make(cmx.Vector, n)
	}
	if len(dst) != n {
		panic(fmt.Sprintf("superres: delay-kernel dst length %d != %d", len(dst), n))
	}
	bTau := bw * tau
	lead := expi(-2 * math.Pi * (-bw/2 + bw/(2*float64(n))) * tau)
	num := expi(-2*math.Pi*bTau) - 1
	ls := lead * complex(1/float64(n), 0)
	lsn := ls * num
	step := expi(2 * math.Pi / float64(n))
	var rho complex128
	for i := 0; i < n; i++ {
		if i%phasorReseed == 0 {
			rho = expi(2*math.Pi*float64(i)/float64(n) - 2*math.Pi*bTau/float64(n))
		}
		den := rho - 1
		// Same degenerate branch and conjugate-reciprocal ratio as the
		// sounder's kernel (|den|² against (1e-12)²), keeping the two
		// implementations' rounding aligned.
		d := real(den)*real(den) + imag(den)*imag(den)
		if d < 1e-24 {
			dst[i] = ls * complex(float64(n), 0)
		} else {
			inv := 1 / d
			dst[i] = lsn * complex(real(den)*inv, -imag(den)*inv)
		}
		rho *= step
	}
	return dst
}
