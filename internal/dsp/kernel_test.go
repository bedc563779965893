package dsp_test

import (
	"math"
	"math/cmplx"
	"testing"

	"mmreliable/internal/dsp"
	"mmreliable/internal/dsp/kerneltest"
)

// TestKernelEquivalence pins the planar kernels against the scalar
// reference through the shared property harness; the GOAMD64=v3 build runs
// it on the fused-multiply-add variant.
func TestKernelEquivalence(t *testing.T) {
	kerneltest.RunEquivalence(t)
}

// TestReferenceMirrorsComplexLoops pins the reference kernel bit-for-bit
// against the historical complex128 formulations it replaces: the factored
// wideband recurrence (cmplx.Rect seeds, complex multiply-accumulate) and
// the steering-vector cmplx.Exp fill. This is the statement that makes the
// reference kernel an oracle rather than a third implementation.
func TestReferenceMirrorsComplexLoops(t *testing.T) {
	ref := kerneltest.Reference
	const n = 200
	for _, tc := range []struct{ th0, dth float64 }{
		{17593.6543, -0.0981}, {-3.25, 0.47}, {0.1, 0}, {-28274.12, 2 * math.Pi / 64},
	} {
		cl := complex(0.7e-4, -1.1e-4)
		want := make([]complex128, n)
		r := cmplx.Rect(1, tc.dth)
		var p complex128
		for k := range want {
			if k%dsp.PhasorReseed == 0 {
				p = cmplx.Rect(1, tc.th0+float64(k)*tc.dth)
			}
			want[k] += cl * p
			p *= r
		}
		gotRe, gotIm := make([]float64, n), make([]float64, n)
		ref.PhasorRampAxpy(gotRe, gotIm, real(cl), imag(cl), tc.th0, tc.dth)
		for k := range want {
			if real(want[k]) != gotRe[k] || imag(want[k]) != gotIm[k] {
				t.Fatalf("ramp θ0=%g Δθ=%g: element %d = (%g,%g), want %v bit-exactly",
					tc.th0, tc.dth, k, gotRe[k], gotIm[k], want[k])
			}
		}
	}
	// Steering fill vs cmplx.Exp(complex(0, k·Δθ)): e^0 is exactly 1, so
	// the historical loop is Sin/Cos of the same argument.
	for _, dth := range []float64{-2.51, 0.33, 0} {
		want := make([]complex128, 8)
		for k := range want {
			want[k] = cmplx.Exp(complex(0, dth*float64(k)))
		}
		got := make([]complex128, 8)
		ref.PhasorFillCmplx(got, 0, dth)
		for k := range want {
			if want[k] != got[k] && !(cmplx.Abs(want[k]-got[k]) == 0) {
				t.Fatalf("fill Δθ=%g: element %d = %v, want %v bit-exactly", dth, k, got[k], want[k])
			}
		}
	}
}

// TestPlanarSumLog2SNRHugeProduct drives the product-form reduction far
// past float64 overflow territory: 256 subcarriers at ~240 dB SNR each
// would overflow a single running product (2^(256·~80) ≫ 2^1024) without
// renormalization.
func TestPlanarSumLog2SNRHugeProduct(t *testing.T) {
	const n = 256
	re, im := make([]float64, n), make([]float64, n)
	for i := range re {
		re[i], im[i] = 1e9, -1e9
	}
	want := kerneltest.Reference.SumLog2SNR(re, im, 31.62, 2.1e-8)
	got := dsp.SumLog2SNR(re, im, 31.62, 2.1e-8)
	if math.IsInf(got, 0) || math.IsNaN(got) {
		t.Fatalf("planar reduction overflowed: %g", got)
	}
	if d := math.Abs(want-got) / want; d > kerneltest.Tol {
		t.Fatalf("huge product: %g vs %g (rel %g)", got, want, d)
	}
}
