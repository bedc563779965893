package dsp

import "math"

// PhasorReseed is the shared recurrence length between exact re-seeds of a
// unit-phasor recurrence: every implementation that sweeps e^{jθ₀+jkΔθ}
// across a grid (the factored wideband channel kernel, the super-resolution
// frequency ramps, the planar kernels below) re-seeds from sin/cos every
// this many steps, bounding accumulated rounding drift to ~PhasorReseed·ε
// instead of O(n·ε).
const PhasorReseed = 64

// ---------------------------------------------------------------------------
// Planar kernels: the DSP operations behind the per-slot hot path. Operands
// are planar — separate re/im []float64 slices instead of []complex128 — so
// the loops run on plain floats the compiler can vectorize. Phasor sweeps
// run four independent chains advanced by e^{j4Δθ}, breaking the serial
// complex-multiply dependency of a scalar recurrence, and the log reduction
// folds 1+SNR terms into running products, trading one Log2 per subcarrier
// for one multiply. Re-seeding stays on the PhasorReseed grid (the chains
// take 4× fewer steps between seeds). fmadd compiles to a plain multiply-add
// by default and to a hardware FMA under GOAMD64=v3 (the amd64.v3 build
// tag).
//
// Every kernel agrees with the scalar reference in internal/dsp/kerneltest
// (the historical complex128 loops) to well under 1e-12, pinned by
// kerneltest.RunEquivalence under both builds. The kernels are stateless and
// safe for concurrent use; all per-call state lives in the caller's slices.
//
// Phase domain: the pin holds for |θ₀| + n·|Δθ| ≲ 10⁴ radians. Beyond that,
// one ulp of the phase argument itself exceeds 1e-12 rad, so per-element
// evaluation and recurrence advance legitimately disagree at the pin level.
// Carrier-scale phases (2π·fc·τ ≈ ±2e4) must be folded into the coefficient
// — exactly what the factored channel kernel does.
// ---------------------------------------------------------------------------

// seedChains4 returns the four chain phasors c·e^{j(θ₀+iΔθ)}, i = 0..3.
func seedChains4(cRe, cIm, theta0, dTheta float64) (q0r, q0i, q1r, q1i, q2r, q2i, q3r, q3i float64) {
	si, sr := math.Sincos(dTheta)
	s0, c0 := math.Sincos(theta0)
	q0r, q0i = cRe*c0-cIm*s0, cRe*s0+cIm*c0
	q1r, q1i = q0r*sr-q0i*si, q0r*si+q0i*sr
	q2r, q2i = q1r*sr-q1i*si, q1r*si+q1i*sr
	q3r, q3i = q2r*sr-q2i*si, q2r*si+q2i*sr
	return
}

// PhasorRampAxpy accumulates c·e^{j(θ₀+kΔθ)} into dst for k = 0..n−1,
// with c = cRe + j·cIm and n = len(dstRe) = len(dstIm). The phasor is
// re-seeded exactly every PhasorReseed steps. This is one path's
// contribution to a factored wideband channel evaluation.
func PhasorRampAxpy(dstRe, dstIm []float64, cRe, cIm, theta0, dTheta float64) {
	n := len(dstRe)
	s4, c4 := math.Sincos(4 * dTheta)
	for b := 0; b < n; b += PhasorReseed {
		end := b + PhasorReseed
		if end > n {
			end = n
		}
		q0r, q0i, q1r, q1i, q2r, q2i, q3r, q3i := seedChains4(cRe, cIm, theta0+float64(b)*dTheta, dTheta)
		k := b
		for ; k+3 < end; k += 4 {
			dstRe[k] += q0r
			dstIm[k] += q0i
			dstRe[k+1] += q1r
			dstIm[k+1] += q1i
			dstRe[k+2] += q2r
			dstIm[k+2] += q2i
			dstRe[k+3] += q3r
			dstIm[k+3] += q3i
			q0r, q0i = fmadd(q0r, c4, -q0i*s4), fmadd(q0r, s4, q0i*c4)
			q1r, q1i = fmadd(q1r, c4, -q1i*s4), fmadd(q1r, s4, q1i*c4)
			q2r, q2i = fmadd(q2r, c4, -q2i*s4), fmadd(q2r, s4, q2i*c4)
			q3r, q3i = fmadd(q3r, c4, -q3i*s4), fmadd(q3r, s4, q3i*c4)
		}
		// Tail (< 4 left): the chains already hold the values for k..k+2.
		if k < end {
			dstRe[k] += q0r
			dstIm[k] += q0i
		}
		if k+1 < end {
			dstRe[k+1] += q1r
			dstIm[k+1] += q1i
		}
		if k+2 < end {
			dstRe[k+2] += q2r
			dstIm[k+2] += q2i
		}
	}
}

// PhasorFillCmplx writes e^{j(θ₀+kΔθ)} into dst for k = 0..n−1 (steering-
// vector synthesis: θ₀ = 0, Δθ = −2π(d/λ)sinφ).
func PhasorFillCmplx(dst []complex128, theta0, dTheta float64) {
	n := len(dst)
	s4, c4 := math.Sincos(4 * dTheta)
	for b := 0; b < n; b += PhasorReseed {
		end := b + PhasorReseed
		if end > n {
			end = n
		}
		q0r, q0i, q1r, q1i, q2r, q2i, q3r, q3i := seedChains4(1, 0, theta0+float64(b)*dTheta, dTheta)
		k := b
		for ; k+3 < end; k += 4 {
			dst[k] = complex(q0r, q0i)
			dst[k+1] = complex(q1r, q1i)
			dst[k+2] = complex(q2r, q2i)
			dst[k+3] = complex(q3r, q3i)
			q0r, q0i = fmadd(q0r, c4, -q0i*s4), fmadd(q0r, s4, q0i*c4)
			q1r, q1i = fmadd(q1r, c4, -q1i*s4), fmadd(q1r, s4, q1i*c4)
			q2r, q2i = fmadd(q2r, c4, -q2i*s4), fmadd(q2r, s4, q2i*c4)
			q3r, q3i = fmadd(q3r, c4, -q3i*s4), fmadd(q3r, s4, q3i*c4)
		}
		if k < end {
			dst[k] = complex(q0r, q0i)
		}
		if k+1 < end {
			dst[k+1] = complex(q1r, q1i)
		}
		if k+2 < end {
			dst[k+2] = complex(q2r, q2i)
		}
	}
}

// PhasorDot returns Σ_k row[k]·e^{j(θ₀+kΔθ)} over the planar row — the
// frequency-domain super-resolution candidate correlation.
func PhasorDot(rowRe, rowIm []float64, theta0, dTheta float64) (re, im float64) {
	n := len(rowRe)
	s4, c4 := math.Sincos(4 * dTheta)
	var a0r, a0i, a1r, a1i, a2r, a2i, a3r, a3i float64
	for b := 0; b < n; b += PhasorReseed {
		end := b + PhasorReseed
		if end > n {
			end = n
		}
		q0r, q0i, q1r, q1i, q2r, q2i, q3r, q3i := seedChains4(1, 0, theta0+float64(b)*dTheta, dTheta)
		k := b
		for ; k+3 < end; k += 4 {
			a0r += rowRe[k]*q0r - rowIm[k]*q0i
			a0i += rowRe[k]*q0i + rowIm[k]*q0r
			a1r += rowRe[k+1]*q1r - rowIm[k+1]*q1i
			a1i += rowRe[k+1]*q1i + rowIm[k+1]*q1r
			a2r += rowRe[k+2]*q2r - rowIm[k+2]*q2i
			a2i += rowRe[k+2]*q2i + rowIm[k+2]*q2r
			a3r += rowRe[k+3]*q3r - rowIm[k+3]*q3i
			a3i += rowRe[k+3]*q3i + rowIm[k+3]*q3r
			q0r, q0i = fmadd(q0r, c4, -q0i*s4), fmadd(q0r, s4, q0i*c4)
			q1r, q1i = fmadd(q1r, c4, -q1i*s4), fmadd(q1r, s4, q1i*c4)
			q2r, q2i = fmadd(q2r, c4, -q2i*s4), fmadd(q2r, s4, q2i*c4)
			q3r, q3i = fmadd(q3r, c4, -q3i*s4), fmadd(q3r, s4, q3i*c4)
		}
		if k < end {
			a0r += rowRe[k]*q0r - rowIm[k]*q0i
			a0i += rowRe[k]*q0i + rowIm[k]*q0r
		}
		if k+1 < end {
			a1r += rowRe[k+1]*q1r - rowIm[k+1]*q1i
			a1i += rowRe[k+1]*q1i + rowIm[k+1]*q1r
		}
		if k+2 < end {
			a2r += rowRe[k+2]*q2r - rowIm[k+2]*q2i
			a2i += rowRe[k+2]*q2i + rowIm[k+2]*q2r
		}
	}
	return (a0r + a1r) + (a2r + a3r), (a0i + a1i) + (a2i + a3i)
}

// DotSplit returns the unconjugated dot Σ_n a[n]·w[n] of a planar vector
// with an interleaved complex one (steering row × beam weights).
func DotSplit(aRe, aIm []float64, w []complex128) (re, im float64) {
	// Two accumulator pairs: steering rows are short (N = 8 typically), so
	// this is latency-, not throughput-, bound.
	var s0r, s0i, s1r, s1i float64
	n := len(aRe)
	k := 0
	for ; k+1 < n; k += 2 {
		w0r, w0i := real(w[k]), imag(w[k])
		w1r, w1i := real(w[k+1]), imag(w[k+1])
		s0r += aRe[k]*w0r - aIm[k]*w0i
		s0i += aRe[k]*w0i + aIm[k]*w0r
		s1r += aRe[k+1]*w1r - aIm[k+1]*w1i
		s1i += aRe[k+1]*w1i + aIm[k+1]*w1r
	}
	if k < n {
		wr, wi := real(w[k]), imag(w[k])
		s0r += aRe[k]*wr - aIm[k]*wi
		s0i += aRe[k]*wi + aIm[k]*wr
	}
	return s0r + s1r, s0i + s1i
}

// SumLog2SNR returns Σ_k log2(1 + txLin·(re[k]²+im[k]²)/noiseLin) — the
// capacity sum behind the effective wideband SNR.
func SumLog2SNR(re, im []float64, txLin, noiseLin float64) float64 {
	// Product form: Σ log2(1+s_k) = log2 Π (1+s_k). Four running products
	// renormalized by 2^±256 before they can overflow (1+SNR ≥ 1, so the
	// products only grow) collapse 64 Log2 calls into one plus a multiply
	// per subcarrier. Relative product error stays ~n·ε, far inside the
	// 1e-12 pin.
	scale := txLin / noiseLin
	p0, p1, p2, p3 := 1.0, 1.0, 1.0, 1.0
	exp := 0
	n := len(re)
	k := 0
	for ; k+3 < n; k += 4 {
		p0 *= 1 + scale*fmadd(re[k], re[k], im[k]*im[k])
		p1 *= 1 + scale*fmadd(re[k+1], re[k+1], im[k+1]*im[k+1])
		p2 *= 1 + scale*fmadd(re[k+2], re[k+2], im[k+2]*im[k+2])
		p3 *= 1 + scale*fmadd(re[k+3], re[k+3], im[k+3]*im[k+3])
		if p0 >= 0x1p256 {
			p0 *= 0x1p-256
			exp += 256
		}
		if p1 >= 0x1p256 {
			p1 *= 0x1p-256
			exp += 256
		}
		if p2 >= 0x1p256 {
			p2 *= 0x1p-256
			exp += 256
		}
		if p3 >= 0x1p256 {
			p3 *= 0x1p-256
			exp += 256
		}
	}
	for ; k < n; k++ {
		p0 *= 1 + scale*fmadd(re[k], re[k], im[k]*im[k])
		if p0 >= 0x1p256 {
			p0 *= 0x1p-256
			exp += 256
		}
	}
	// Combine through Frexp so the pairwise products cannot overflow.
	f0, e0 := math.Frexp(p0)
	f1, e1 := math.Frexp(p1)
	f2, e2 := math.Frexp(p2)
	f3, e3 := math.Frexp(p3)
	return math.Log2((f0*f1)*(f2*f3)) + float64(exp+e0+e1+e2+e3)
}

// AmpFromLossDB returns the linear amplitude 10^(−lossDB/20) of a path loss.
func AmpFromLossDB(lossDB float64) float64 {
	// exp(−loss·ln10/20): one exponential instead of Pow's log/exp round
	// trip; agrees with the reference to ~1 ulp of the exponent scaling.
	return math.Exp(lossDB * -lnTenOver20)
}

// lnTenOver20 is ln(10)/20, the dB-amplitude-to-natural-log factor.
const lnTenOver20 = 0.11512925464970228
