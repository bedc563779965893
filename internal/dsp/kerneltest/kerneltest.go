// Package kerneltest holds the scalar reference of the planar dsp kernels
// and the property-test harness that pins them to it: RunEquivalence checks
// the ≤1e-12 contract across the full operation surface — phasor ramps at
// carrier-scale seed phases, steering fills, planar dots, and the log-SNR
// reduction with overflow-range inputs. The dsp package runs it under
// every build (-race, GOAMD64=v3 with its fused multiply-adds), so each
// build-tag variant of the kernels carries the same contract.
package kerneltest

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mmreliable/internal/dsp"
)

// Tol is the maximum relative disagreement allowed between a kernel and the
// reference on any operation.
const Tol = 1e-12

// lengths exercises the blocked/unrolled loop structure of fast kernels:
// empty, sub-unroll tails, one short of / exactly at / one past the
// PhasorReseed re-seed boundary, and exact multiples of it.
var lengths = []int{0, 1, 2, 3, 4, 5, 7, 8, 63, 64, 65, 127, 128, 192, 200}

// phases covers benign baseband angles up to the edge of the kernels'
// documented phase domain (|θ₀| + n·|Δθ| ≲ 10⁴): the factored channel
// kernel seeds with −2πf₀τ ramps of a few hundred radians and folds the
// ±10⁴-radian carrier phase into the coefficient, where it belongs — at
// that magnitude one ulp of the phase argument is itself ~2e-12 rad, more
// than the equivalence pin.
var phases = []float64{0, 0.25, -1.3, math.Pi, 980.25, -3333.333}

// steps covers DC (Δθ = 0), typical subcarrier ramps, a step that wraps
// past π between elements, and sign flips.
var steps = []float64{0, 1e-3, -0.098, 0.47, -2.9, 2 * math.Pi / 64}

// RunEquivalence pins every planar dsp kernel against Reference. Inputs
// are deterministic (seeded here), so failures reproduce exactly.
func RunEquivalence(t *testing.T) {
	t.Helper()
	rng := rand.New(rand.NewSource(0x5eed))
	t.Run("planar-vs-reference", func(t *testing.T) {
		t.Run("PhasorRampAxpy", func(t *testing.T) { testPhasorRampAxpy(t, rng) })
		t.Run("PhasorFillCmplx", testPhasorFillCmplx)
		t.Run("DotSplit", func(t *testing.T) { testDotSplit(t, rng) })
		t.Run("SumLog2SNR", func(t *testing.T) { testSumLog2SNR(t, rng) })
		t.Run("AmpFromDB", testAmpFromDB)
	})
}

// relDiff returns |a−b| relative to a magnitude scale (floored at 1 so
// near-zero outputs are compared absolutely).
func relDiff(a, b, scale float64) float64 {
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) / scale
}

// pinVecs compares two planar vectors against the reference one's maximum
// magnitude.
func pinVecs(t *testing.T, what string, wantRe, wantIm, gotRe, gotIm []float64) {
	t.Helper()
	scale := 0.0
	for i := range wantRe {
		if a := math.Abs(wantRe[i]); a > scale {
			scale = a
		}
		if a := math.Abs(wantIm[i]); a > scale {
			scale = a
		}
	}
	for i := range wantRe {
		if d := relDiff(wantRe[i], gotRe[i], scale); d > Tol {
			t.Fatalf("%s: re[%d] = %g, want %g (rel %g)", what, i, gotRe[i], wantRe[i], d)
		}
		if d := relDiff(wantIm[i], gotIm[i], scale); d > Tol {
			t.Fatalf("%s: im[%d] = %g, want %g (rel %g)", what, i, gotIm[i], wantIm[i], d)
		}
	}
}

func testPhasorRampAxpy(t *testing.T, rng *rand.Rand) {
	t.Helper()
	for _, n := range lengths {
		for _, th0 := range phases {
			for _, dth := range steps {
				cRe, cIm := rng.NormFloat64()*1e-4, rng.NormFloat64()*1e-4
				aRe, aIm := make([]float64, n), make([]float64, n)
				bRe, bIm := make([]float64, n), make([]float64, n)
				for i := 0; i < n; i++ {
					v, w := rng.NormFloat64()*1e-4, rng.NormFloat64()*1e-4
					aRe[i], aIm[i] = v, w
					bRe[i], bIm[i] = v, w
				}
				Reference.PhasorRampAxpy(aRe, aIm, cRe, cIm, th0, dth)
				dsp.PhasorRampAxpy(bRe, bIm, cRe, cIm, th0, dth)
				pinVecs(t, fmt.Sprintf("axpy n=%d θ0=%g Δθ=%g", n, th0, dth), aRe, aIm, bRe, bIm)
			}
		}
	}
}

func testPhasorFillCmplx(t *testing.T) {
	t.Helper()
	for _, n := range lengths {
		for _, th0 := range phases {
			for _, dth := range steps {
				a := make([]complex128, n)
				b := make([]complex128, n)
				Reference.PhasorFillCmplx(a, th0, dth)
				dsp.PhasorFillCmplx(b, th0, dth)
				for i := range a {
					if d := relDiff(real(a[i]), real(b[i]), 1); d > Tol {
						t.Fatalf("fillcmplx n=%d θ0=%g Δθ=%g: re[%d] rel %g", n, th0, dth, i, d)
					}
					if d := relDiff(imag(a[i]), imag(b[i]), 1); d > Tol {
						t.Fatalf("fillcmplx n=%d θ0=%g Δθ=%g: im[%d] rel %g", n, th0, dth, i, d)
					}
				}
			}
		}
	}
}

func testDotSplit(t *testing.T, rng *rand.Rand) {
	t.Helper()
	for _, n := range lengths {
		aRe, aIm := make([]float64, n), make([]float64, n)
		w := make([]complex128, n)
		scale := 0.0
		for i := 0; i < n; i++ {
			aRe[i], aIm[i] = rng.NormFloat64(), rng.NormFloat64()
			w[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			scale += math.Hypot(aRe[i], aIm[i])
		}
		wantRe, wantIm := Reference.DotSplit(aRe, aIm, w)
		gotRe, gotIm := dsp.DotSplit(aRe, aIm, w)
		if d := relDiff(wantRe, gotRe, scale); d > Tol {
			t.Fatalf("dotsplit n=%d: re %g vs %g (rel %g)", n, gotRe, wantRe, d)
		}
		if d := relDiff(wantIm, gotIm, scale); d > Tol {
			t.Fatalf("dotsplit n=%d: im %g vs %g (rel %g)", n, gotIm, wantIm, d)
		}
	}
}

func testSumLog2SNR(t *testing.T, rng *rand.Rand) {
	t.Helper()
	// ampScale sweeps the per-subcarrier SNR from deep outage to ~1e12 —
	// the last making every 1+SNR term huge, so a product-form fast path
	// must renormalize to stay finite where the reference's per-term Log2
	// trivially does.
	for _, n := range lengths {
		for _, ampScale := range []float64{0, 1e-9, 1e-4, 2.5e-4, 1e2} {
			re, im := make([]float64, n), make([]float64, n)
			for i := 0; i < n; i++ {
				re[i], im[i] = rng.NormFloat64()*ampScale, rng.NormFloat64()*ampScale
			}
			txLin, noiseLin := 31.62, 2.1e-8 // ≈ the default budget's linear terms
			want := Reference.SumLog2SNR(re, im, txLin, noiseLin)
			got := dsp.SumLog2SNR(re, im, txLin, noiseLin)
			if math.IsInf(want, 0) || math.IsNaN(want) {
				t.Fatalf("sumlog n=%d amp=%g: reference not finite: %g", n, ampScale, want)
			}
			if d := relDiff(want, got, math.Abs(want)); d > Tol {
				t.Fatalf("sumlog n=%d amp=%g: %g vs %g (rel %g)", n, ampScale, got, want, d)
			}
		}
	}
}

func testAmpFromDB(t *testing.T) {
	t.Helper()
	for db := -40.0; db <= 160; db += 2.37 {
		want := Reference.AmpFromLossDB(db)
		got := dsp.AmpFromLossDB(db)
		if d := math.Abs(want-got) / want; d > Tol {
			t.Fatalf("ampfromdb %g: %g vs %g (rel %g)", db, got, want, d)
		}
	}
}
