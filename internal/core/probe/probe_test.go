package probe

import (
	"math"
	"math/rand"
	"testing"

	"mmreliable/internal/antenna"
	"mmreliable/internal/channel"
	"mmreliable/internal/cmx"
	"mmreliable/internal/dsp"
	"mmreliable/internal/env"
	"mmreliable/internal/nr"
)

// liveProber binds an nr.Sounder to a channel snapshot.
type liveProber struct {
	s *nr.Sounder
	m *channel.Model
}

func (p *liveProber) ProbeInto(w, dst cmx.Vector) cmx.Vector { return p.s.ProbeInto(p.m, w, dst) }

func newProber(t *testing.T, m *channel.Model, bw, noise float64, imp nr.Impairments, seed int64) *liveProber {
	t.Helper()
	s, err := nr.NewSounder(nr.Mu3(), bw, 64, noise, imp, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return &liveProber{s: s, m: m}
}

// twoPath builds a 2-path channel with a small 1.5 ns excess delay — the
// indoor regime of the paper's Fig. 15c, where the relative phase is stable
// across a 100 MHz band and the plain Eq. 14 fusion is unbiased.
func twoPath(relAttDB, phase float64) *channel.Model {
	return channel.FromSpecs(env.Band28GHz(), antenna.NewULA(8, 28e9), 80, []channel.PathSpec{
		{AoDDeg: 0},
		{AoDDeg: 30, RelAttDB: relAttDB, PhaseRad: phase, DelayNs: 1.5},
	})
}

func TestEstimatePairNoiseless(t *testing.T) {
	for _, tc := range []struct{ att, phase float64 }{
		{3, -0.7}, {6, 2.5}, {0, 1.0}, {10, -2.9},
	} {
		m := twoPath(tc.att, tc.phase)
		p := newProber(t, m, 100e6, 0, nr.Impairments{}, 1)
		m1 := p.ProbeInto(m.Tx.SingleBeam(0), nil).Abs()
		m2 := p.ProbeInto(m.Tx.SingleBeam(dsp.Rad(30)), nil).Abs()
		est, err := EstimatePairWithDelayWS(p, m.Tx, 0, dsp.Rad(30), m1, m2, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantDelta, wantSigma := m.RelativeGain(1, 0)
		// Cross-lobe leakage and in-band phase rotation bound accuracy even
		// without noise.
		if math.Abs(est.Delta-wantDelta) > 0.08*wantDelta+0.02 {
			t.Fatalf("att=%g: δ = %g want %g", tc.att, est.Delta, wantDelta)
		}
		if math.Abs(dsp.WrapPhase(est.Sigma-wantSigma)) > dsp.Rad(10) {
			t.Fatalf("phase=%g: σ = %g want %g", tc.phase, est.Sigma, wantSigma)
		}
	}
}

func TestEstimatePairSurvivesCFOSFO(t *testing.T) {
	// The whole point: estimates stay accurate when every probe has a
	// random phase and a random SFO slope.
	m := twoPath(5, 1.3)
	p := newProber(t, m, 100e6, 1e-6, nr.DefaultImpairments(), 7)
	m1 := p.ProbeInto(m.Tx.SingleBeam(0), nil).Abs()
	m2 := p.ProbeInto(m.Tx.SingleBeam(dsp.Rad(30)), nil).Abs()
	est, err := EstimatePairWithDelayWS(p, m.Tx, 0, dsp.Rad(30), m1, m2, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantDelta, wantSigma := m.RelativeGain(1, 0)
	if math.Abs(est.Delta-wantDelta) > 0.1*wantDelta+0.02 {
		t.Fatalf("δ = %g want %g", est.Delta, wantDelta)
	}
	if math.Abs(dsp.WrapPhase(est.Sigma-wantSigma)) > dsp.Rad(12) {
		t.Fatalf("σ = %g want %g", est.Sigma, wantSigma)
	}
}

func TestDelayCompensationUnbiasesWideband(t *testing.T) {
	// At 400 MHz with a 10 ns excess delay, the relative phase wraps ~25 rad
	// across the band: plain Eq. 14 fusion integrates to ≈0 (δ collapses),
	// while ToF-compensated fusion recovers the truth. This is the wideband
	// failure mode §3.4 is about.
	m := channel.FromSpecs(env.Band28GHz(), antenna.NewULA(8, 28e9), 80, []channel.PathSpec{
		{AoDDeg: 0},
		{AoDDeg: 30, RelAttDB: 5, PhaseRad: 1.0, DelayNs: 10},
	})
	wantDelta, wantSigma := m.RelativeGain(1, 0)

	p := newProber(t, m, 400e6, 0, nr.Impairments{}, 3)
	m1 := p.ProbeInto(m.Tx.SingleBeam(0), nil).Abs()
	m2 := p.ProbeInto(m.Tx.SingleBeam(dsp.Rad(30)), nil).Abs()

	plain, err := EstimatePairWithDelayWS(p, m.Tx, 0, dsp.Rad(30), m1, m2, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Delta > 0.2*wantDelta {
		t.Fatalf("plain fusion should collapse at this delay spread: δ = %g", plain.Delta)
	}
	comp, err := EstimatePairWithDelayWS(p, m.Tx, 0, dsp.Rad(30), m1, m2, 10e-9, 400e6, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(comp.Delta-wantDelta) > 0.08*wantDelta+0.02 {
		t.Fatalf("compensated δ = %g want %g", comp.Delta, wantDelta)
	}
	if math.Abs(dsp.WrapPhase(comp.Sigma-wantSigma)) > dsp.Rad(10) {
		t.Fatalf("compensated σ = %g want %g", comp.Sigma, wantSigma)
	}
}

func TestEstimateAccuracyUnderNoise(t *testing.T) {
	// At realistic probe SNR the phase error stays well inside the ±75°
	// tolerance window of Fig. 14.
	m := twoPath(5, -2.0)
	wantDelta, wantSigma := m.RelativeGain(1, 0)
	var worstPhase float64
	for seed := int64(0); seed < 20; seed++ {
		p := newProber(t, m, 100e6, 3e-6, nr.DefaultImpairments(), seed)
		m1 := p.ProbeInto(m.Tx.SingleBeam(0), nil).Abs()
		m2 := p.ProbeInto(m.Tx.SingleBeam(dsp.Rad(30)), nil).Abs()
		est, err := EstimatePairWithDelayWS(p, m.Tx, 0, dsp.Rad(30), m1, m2, 0, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		phaseErr := math.Abs(dsp.WrapPhase(est.Sigma - wantSigma))
		if phaseErr > worstPhase {
			worstPhase = phaseErr
		}
		if est.Delta < 0.3*wantDelta || est.Delta > 3*wantDelta {
			t.Fatalf("seed %d: δ = %g want %g", seed, est.Delta, wantDelta)
		}
	}
	if worstPhase > dsp.Rad(40) {
		t.Fatalf("worst phase error %g°, want < 40°", dsp.Deg(worstPhase))
	}
}

func TestBeamsShapeValidation(t *testing.T) {
	r := Result{Relative: []Estimate{{Delta: 0.5}}}
	if _, err := r.BeamsInto([]float64{0}, nil); err == nil {
		t.Fatal("angle/estimate mismatch should fail")
	}
	beams, err := r.BeamsInto([]float64{0, 0.5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if beams[0].Amp != 1 || beams[1].Amp != 0.5 {
		t.Fatalf("beams %+v", beams)
	}
}

func TestEstimatePairLengthValidation(t *testing.T) {
	m := twoPath(3, 0)
	p := newProber(t, m, 100e6, 0, nr.Impairments{}, 1)
	if _, err := EstimatePairWithDelayWS(p, m.Tx, 0, dsp.Rad(30), []float64{1}, []float64{1, 2}, 0, 0, nil); err == nil {
		t.Fatal("length mismatch should fail")
	}
	if _, err := EstimatePairWithDelayWS(p, m.Tx, 0, dsp.Rad(30), nil, nil, 0, 0, nil); err == nil {
		t.Fatal("empty magnitudes should fail")
	}
}

func TestPhaseStabilityAcrossBand(t *testing.T) {
	// Fig. 15c: per-subcarrier optimal phase varies < 1 rad across 100 MHz
	// for a typical indoor delay spread (≈1.5 ns here).
	m := twoPath(5, 1.0)
	s, err := nr.NewSounder(nr.Mu3(), 100e6, 64, 0, nr.Impairments{}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	p := &liveProber{s: s, m: m}
	m1 := p.ProbeInto(m.Tx.SingleBeam(0), nil).Abs()
	m2 := p.ProbeInto(m.Tx.SingleBeam(dsp.Rad(30)), nil).Abs()
	w3, _ := combinedBeam(m.Tx, 0, dsp.Rad(30), 0, nil, nil)
	w4, _ := combinedBeam(m.Tx, 0, dsp.Rad(30), math.Pi/2, nil, nil)
	csi3 := p.ProbeInto(w3, nil)
	csi4 := p.ProbeInto(w4, nil)
	phases := PhaseStability(m.Tx, 0, dsp.Rad(30), m1, m2, csi3, csi4)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, ph := range phases {
		lo = math.Min(lo, ph)
		hi = math.Max(hi, ph)
	}
	if hi-lo > 1.0 {
		t.Fatalf("phase spread %g rad over 100 MHz, want < 1", hi-lo)
	}
}
