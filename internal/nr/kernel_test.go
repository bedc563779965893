package nr

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"mmreliable/internal/cmx"
	"mmreliable/internal/dsp"
)

// TestDelayKernelEqualsIFFT pins the closed-form Dirichlet kernel to the
// brute-force IFFT it replaced, across delays spanning fractional samples,
// negative values, and multiple wraps.
func TestDelayKernelEqualsIFFT(t *testing.T) {
	s := testSounder(t, 0, Impairments{})
	offs := s.SubcarrierOffsets()
	for _, tauNs := range []float64{0, 0.3, 2.5, 7.31, 40, -3.2, 200} {
		tau := tauNs * 1e-9
		got := s.DelayKernelInto(tau, nil)
		want := make(cmx.Vector, s.NumSC)
		for k, f := range offs {
			want[k] = cmplx.Exp(complex(0, -2*math.Pi*f*tau))
		}
		if err := dsp.IFFT(want); err != nil {
			t.Fatal(err)
		}
		if d := got.Sub(want).Norm(); d > 1e-9 {
			t.Fatalf("tau=%g ns: closed form differs from IFFT by %g", tauNs, d)
		}
	}
}

// TestDelayKernelUnitEnergy: each kernel column has unit energy (Parseval
// on a unit-magnitude spectrum), so dictionary columns are comparable.
func TestDelayKernelUnitEnergy(t *testing.T) {
	s := testSounder(t, 0, Impairments{})
	want := 1.0
	for _, tauNs := range []float64{0, 1.1, 13.7} {
		e := s.DelayKernelInto(tauNs*1e-9, nil).Norm2()
		if math.Abs(e-want) > 1e-12 {
			t.Fatalf("tau=%g ns: kernel energy %g want %g", tauNs, e, want)
		}
	}
}

// TestDelayKernelShiftInvariantGram: the inner product of two kernels
// depends only on their delay difference — the invariance the
// super-resolution alignment search relies on to hoist the Gram matrix.
func TestDelayKernelShiftInvariantGram(t *testing.T) {
	s := testSounder(t, 0, Impairments{})
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		d1 := rng.Float64() * 20e-9
		d2 := rng.Float64() * 20e-9
		shift := (rng.Float64() - 0.5) * 10e-9
		a := s.DelayKernelInto(d1, nil).Hdot(s.DelayKernelInto(d2, nil))
		b := s.DelayKernelInto(d1+shift, nil).Hdot(s.DelayKernelInto(d2+shift, nil))
		if cmplx.Abs(a-b) > 1e-9 {
			t.Fatalf("Gram not shift-invariant: %v vs %v (shift %g ns)", a, b, shift*1e9)
		}
	}
}

// TestProbeLinearity: the sounder is linear in the channel — the CSI of a
// superposition equals the superposition of CSIs (noiseless).
func TestProbeLinearity(t *testing.T) {
	s := testSounder(t, 0, Impairments{})
	m := testChannel()
	w1 := m.Tx.SingleBeam(0)
	w2 := m.Tx.SingleBeam(0.5)
	sum := w1.Add(w2)
	c1 := s.Probe(m, w1)
	c2 := s.Probe(m, w2)
	cs := s.Probe(m, sum)
	if d := cs.Sub(c1.Add(c2)).Norm(); d > 1e-9*cs.Norm() {
		t.Fatalf("probe not linear: %g", d)
	}
}
