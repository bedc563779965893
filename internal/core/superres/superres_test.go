package superres

import (
	"math"
	"math/rand"
	"testing"

	"mmreliable/internal/antenna"
	"mmreliable/internal/channel"
	"mmreliable/internal/cmx"
	"mmreliable/internal/env"
	"mmreliable/internal/nr"
)

func newSounder(t *testing.T, noise float64, seed int64) *nr.Sounder {
	t.Helper()
	s, err := nr.NewSounder(nr.Mu3(), 400e6, 64, noise, nr.DefaultImpairments(), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// measure returns the CIR of the multi-beam probing of a 2-path channel
// with the given relative attenuation and excess delay, along with the true
// per-beam powers (the powers each path contributes under the beam).
func measure(t *testing.T, s *nr.Sounder, relAttDB, excessNs float64) (cmx.Vector, []float64) {
	t.Helper()
	m := channel.FromSpecs(env.Band28GHz(), antenna.NewULA(8, 28e9), 80, []channel.PathSpec{
		{AoDDeg: 0, DelayNs: 20},
		{AoDDeg: 30, RelAttDB: relAttDB, PhaseRad: 1.0, DelayNs: 20 + excessNs},
	})
	h := m.PerAntennaCSI(0)
	w := h.Conj().Normalize()
	// True per-path contribution magnitude under this beam.
	truth := make([]float64, len(m.Paths))
	for k := range m.Paths {
		g := m.PathGain(k, 0)
		ar := m.Tx.SteeringInto(m.Paths[k].AoD, nil).Dot(w)
		p := g * ar
		truth[k] = real(p)*real(p) + imag(p)*imag(p)
	}
	cir := s.CIR(s.Probe(m, w))
	return cir, truth
}

func TestExtractTwoResolvedPaths(t *testing.T) {
	// 10 ns excess delay = 4 samples at 400 MHz: fully resolved.
	s := newSounder(t, 0, 1)
	cir, truth := measure(t, s, 3, 10)
	res, err := ExtractInto(cir, []float64{0, 10e-9}, s.SampleSpacing(), DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Residual > 0.02 {
		t.Fatalf("residual %g", res.Residual)
	}
	for k := range truth {
		errDB := math.Abs(10 * math.Log10(res.Power[k]/truth[k]))
		if errDB > 0.3 {
			t.Fatalf("beam %d power off by %g dB", k, errDB)
		}
	}
	// Relative per-beam power under the matched multi-beam goes as |g_k|⁴
	// (path attenuation squared again by the beam's power allocation), so a
	// −3 dB path appears at ≈ −6 dB.
	if got := 10 * math.Log10(res.Power[1]/res.Power[0]); math.Abs(got+6) > 0.5 {
		t.Fatalf("relative power %g dB want −6", got)
	}
}

func TestExtractBelowResolution(t *testing.T) {
	// Fig. 11a: per-beam power extraction keeps working below the 2.5 ns
	// system resolution thanks to the known relative-ToF dictionary.
	s := newSounder(t, 0, 2)
	for _, excessNs := range []float64{0.8, 1.2, 1.8} {
		cir, truth := measure(t, s, 3, excessNs)
		res, err := ExtractInto(cir, []float64{0, excessNs * 1e-9}, s.SampleSpacing(), DefaultConfig(), nil)
		if err != nil {
			t.Fatalf("excess %g ns: %v", excessNs, err)
		}
		for k := range truth {
			errDB := math.Abs(10 * math.Log10(res.Power[k]/truth[k]))
			if errDB > 1.5 {
				t.Fatalf("excess %g ns: beam %d power off by %g dB", excessNs, k, errDB)
			}
		}
	}
}

func TestExtractWithNoise(t *testing.T) {
	s := newSounder(t, 2e-6, 3)
	var worst float64
	for trial := 0; trial < 10; trial++ {
		cir, truth := measure(t, s, 5, 7.5)
		res, err := ExtractInto(cir, []float64{0, 7.5e-9}, s.SampleSpacing(), DefaultConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for k := range truth {
			errDB := math.Abs(10 * math.Log10(res.Power[k]/truth[k]))
			if errDB > worst {
				worst = errDB
			}
		}
	}
	if worst > 2.0 {
		t.Fatalf("worst per-beam power error %g dB under noise", worst)
	}
}

func TestExtractTracksBlockageOfOneBeam(t *testing.T) {
	// When a blocker attenuates the NLOS path by 10 dB (the beam itself
	// unchanged), beam 1's extracted power must drop by ≈10 dB while beam
	// 0's stays put — the §4.1 observable.
	s := newSounder(t, 0, 4)
	m := channel.FromSpecs(env.Band28GHz(), antenna.NewULA(8, 28e9), 80, []channel.PathSpec{
		{AoDDeg: 0, DelayNs: 20},
		{AoDDeg: 30, RelAttDB: 3, PhaseRad: 1.0, DelayNs: 30},
	})
	w := m.PerAntennaCSI(0).Conj().Normalize()
	cirA := s.CIR(s.Probe(m, w))
	m.Paths[1].ExtraLossDB = 10 // blocker on the NLOS path, same beam
	cirB := s.CIR(s.Probe(m, w))
	cfg := DefaultConfig()
	resA, err := ExtractInto(cirA, []float64{0, 10e-9}, s.SampleSpacing(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := ExtractInto(cirB, []float64{0, 10e-9}, s.SampleSpacing(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	drop := 10 * math.Log10(resA.Power[1]/resB.Power[1])
	if math.Abs(drop-10) > 1.0 {
		t.Fatalf("beam-1 drop %g dB want ≈10", drop)
	}
	stay := math.Abs(10 * math.Log10(resA.Power[0]/resB.Power[0]))
	if stay > 1.0 {
		t.Fatalf("beam-0 moved %g dB, should be static", stay)
	}
}

func TestExtractThreeBeams(t *testing.T) {
	s := newSounder(t, 0, 5)
	m := channel.FromSpecs(env.Band28GHz(), antenna.NewULA(8, 28e9), 80, []channel.PathSpec{
		{AoDDeg: 0, DelayNs: 10},
		{AoDDeg: 35, RelAttDB: 4, PhaseRad: 1.0, DelayNs: 16},
		{AoDDeg: -30, RelAttDB: 7, PhaseRad: -0.5, DelayNs: 30},
	})
	h := m.PerAntennaCSI(0)
	w := h.Conj().Normalize()
	cir := s.CIR(s.Probe(m, w))
	res, err := ExtractInto(cir, []float64{0, 6e-9, 20e-9}, s.SampleSpacing(), DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Power) != 3 {
		t.Fatalf("power length %d", len(res.Power))
	}
	if !(res.Power[0] > res.Power[1] && res.Power[1] > res.Power[2]) {
		t.Fatalf("powers not ordered: %v", res.Power)
	}
	if res.Residual > 0.05 {
		t.Fatalf("residual %g", res.Residual)
	}
}

func TestExtractSurvivesTimingDrift(t *testing.T) {
	// Rotating the CIR (absolute ToF drift between maintenance rounds) must
	// not change the per-beam estimates: the alignment step absorbs it.
	s := newSounder(t, 0, 6)
	cir, truth := measure(t, s, 3, 10)
	for _, shift := range []int{1, 5, 17, 40} {
		rot := rotate(cir, shift)
		res, err := ExtractInto(rot, []float64{0, 10e-9}, s.SampleSpacing(), DefaultConfig(), nil)
		if err != nil {
			t.Fatalf("shift %d: %v", shift, err)
		}
		for k := range truth {
			errDB := math.Abs(10 * math.Log10(res.Power[k]/truth[k]))
			if errDB > 0.5 {
				t.Fatalf("shift %d: beam %d off by %g dB", shift, k, errDB)
			}
		}
	}
}

func TestExtractValidation(t *testing.T) {
	cir := make(cmx.Vector, 64)
	cir[0] = 1
	cases := []struct {
		name string
		cir  cmx.Vector
		rel  []float64
	}{
		{"empty CIR", nil, []float64{0}},
		{"no delays", cir, nil},
		{"nonzero first delay", cir, []float64{1e-9, 2e-9}},
		{"too many paths", make(cmx.Vector, 2), []float64{0, 1e-9, 2e-9}},
	}
	for _, c := range cases {
		if _, err := ExtractInto(c.cir, c.rel, 2.5e-9, DefaultConfig(), nil); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if _, err := ExtractInto(cir, []float64{0}, 0, DefaultConfig(), nil); err == nil {
		t.Error("zero sample spacing: expected error")
	}
	if _, err := ExtractInto(make(cmx.Vector, 64), []float64{0}, 2.5e-9, DefaultConfig(), nil); err == nil {
		t.Error("all-zero CIR: expected error")
	}
}

func TestExtractSingleBeamDegenerate(t *testing.T) {
	// K = 1: the fit reduces to measuring total power.
	s := newSounder(t, 0, 8)
	m := channel.FromSpecs(env.Band28GHz(), antenna.NewULA(8, 28e9), 80, []channel.PathSpec{
		{AoDDeg: 0, DelayNs: 15},
	})
	w := m.Tx.SingleBeam(0)
	cir := s.CIR(s.Probe(m, w))
	res, err := ExtractInto(cir, []float64{0}, s.SampleSpacing(), DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Residual > 0.02 {
		t.Fatalf("single-path residual %g", res.Residual)
	}
}

func TestRotate(t *testing.T) {
	v := cmx.Vector{1, 2, 3, 4}
	if got := rotate(v, 1); got[1] != 1 || got[0] != 4 {
		t.Fatalf("rotate +1 = %v", got)
	}
	if got := rotate(v, -1); got[3] != 1 || got[0] != 2 {
		t.Fatalf("rotate -1 = %v", got)
	}
	if got := rotate(v, 4); got[0] != 1 {
		t.Fatalf("full rotation = %v", got)
	}
}
