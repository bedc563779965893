package kerneltest

import (
	"math"

	"mmreliable/internal/dsp"
)

// Reference is the scalar oracle the planar dsp kernels are pinned against:
// loops arithmetically identical to the historical complex128 code (same
// operation order, same seeding). Go's compiler lowers complex128
// multiply/add to the naive componentwise formulas without fusing, so
// writing the same expressions over floats reproduces the old results bit
// for bit (pinned by dsp's TestReferenceMirrorsComplexLoops).
var Reference scalar

type scalar struct{}

// PhasorRampAxpy is the oracle of dsp.PhasorRampAxpy.
func (scalar) PhasorRampAxpy(dstRe, dstIm []float64, cRe, cIm, theta0, dTheta float64) {
	// Mirrors the historical factored-kernel inner loop:
	//   r := cmplx.Rect(1, Δθ); p = cmplx.Rect(1, θ₀+kΔθ) at re-seeds;
	//   dst[k] += c·p; p *= r.
	rRe, rIm := math.Cos(dTheta), math.Sin(dTheta)
	var pRe, pIm float64
	for k := range dstRe {
		if k%dsp.PhasorReseed == 0 {
			th := theta0 + float64(k)*dTheta
			pRe, pIm = math.Cos(th), math.Sin(th)
		}
		dstRe[k] += cRe*pRe - cIm*pIm
		dstIm[k] += cRe*pIm + cIm*pRe
		pRe, pIm = pRe*rRe-pIm*rIm, pRe*rIm+pIm*rRe
	}
}

// PhasorFillCmplx is the oracle of dsp.PhasorFillCmplx: per-element exact
// evaluation — the rounding pattern of the historical
// cmplx.Exp(complex(0, k·Δθ)) steering loop (e^0 = 1 exactly).
func (scalar) PhasorFillCmplx(dst []complex128, theta0, dTheta float64) {
	for k := range dst {
		th := theta0 + float64(k)*dTheta
		dst[k] = complex(math.Cos(th), math.Sin(th))
	}
}

// DotSplit is the oracle of dsp.DotSplit.
func (scalar) DotSplit(aRe, aIm []float64, w []complex128) (re, im float64) {
	for n := range aRe {
		wRe, wIm := real(w[n]), imag(w[n])
		re += aRe[n]*wRe - aIm[n]*wIm
		im += aRe[n]*wIm + aIm[n]*wRe
	}
	return re, im
}

// SumLog2SNR is the oracle of dsp.SumLog2SNR.
func (scalar) SumLog2SNR(re, im []float64, txLin, noiseLin float64) float64 {
	var sumLog float64
	for k := range re {
		p := re[k]*re[k] + im[k]*im[k]
		snr := txLin * p / noiseLin
		sumLog += math.Log2(1 + snr)
	}
	return sumLog
}

// AmpFromLossDB is the oracle of dsp.AmpFromLossDB.
func (scalar) AmpFromLossDB(lossDB float64) float64 {
	return math.Pow(10, -lossDB/20)
}
