package link

import (
	"math"
	"testing"
)

// TestWidebandSINRZeroInterferenceMatchesSNR: with an all-zero
// interference profile the SINR fold must agree with the wideband SNR
// computed from the same per-subcarrier channel.
func TestWidebandSINRZeroInterferenceMatchesSNR(t *testing.T) {
	b := DefaultBudget()
	txLin, noiseLin := b.SNRTerms()
	const nsc = 64
	re := make([]float64, nsc)
	im := make([]float64, nsc)
	sig := make([]float64, nsc)
	intf := make([]float64, nsc)
	for j := 0; j < nsc; j++ {
		re[j] = 1.3e-4 * math.Cos(0.05*float64(j))
		im[j] = 1.3e-4 * math.Sin(0.05*float64(j))
		sig[j] = txLin * (re[j]*re[j] + im[j]*im[j])
	}
	got := WidebandSINRdB(sig, intf, noiseLin)
	want := WidebandSNRdB(re, im, txLin, noiseLin)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("zero-interference wideband SINR %.12f dB != SNR %.12f dB", got, want)
	}
}

func TestWidebandSINRInterferencePenalty(t *testing.T) {
	sig := []float64{1e-7, 1e-7, 1e-7, 1e-7}
	clean := make([]float64, 4)
	dirty := []float64{1e-8, 1e-8, 1e-8, 1e-8}
	noise := 1e-9
	a := WidebandSINRdB(sig, clean, noise)
	b := WidebandSINRdB(sig, dirty, noise)
	if b >= a {
		t.Fatalf("interference did not reduce SINR: %.3f vs %.3f", b, a)
	}
	// 1e-7/(1e-8+1e-9) ≈ 9.59 dB flat profile.
	want := 10 * math.Log10(1e-7/(1e-8+1e-9))
	if math.Abs(b-want) > 1e-9 {
		t.Fatalf("flat-profile SINR %.12f, want %.12f", b, want)
	}
}

func TestWidebandSINRDegenerate(t *testing.T) {
	if got := WidebandSINRdB(nil, nil, 1e-9); !math.IsInf(got, -1) {
		t.Fatalf("empty profile = %g, want -Inf", got)
	}
	if got := WidebandSINRdB([]float64{1}, []float64{1, 2}, 1e-9); !math.IsInf(got, -1) {
		t.Fatalf("mismatched profile = %g, want -Inf", got)
	}
	if got := WidebandSINRdB([]float64{0, 0}, []float64{0, 0}, 1e-9); !math.IsInf(got, -1) {
		t.Fatalf("zero signal = %g, want -Inf", got)
	}
}
