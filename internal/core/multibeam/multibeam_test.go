package multibeam

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"mmreliable/internal/antenna"
	"mmreliable/internal/channel"
	"mmreliable/internal/cmx"
	"mmreliable/internal/dsp"
	"mmreliable/internal/env"
)

func ula8() *antenna.ULA { return antenna.NewULA(8, 28e9) }

func twoPathChannel(relAttDB, phase float64) *channel.Model {
	return channel.FromSpecs(env.Band28GHz(), ula8(), 80, []channel.PathSpec{
		{AoDDeg: 0},
		{AoDDeg: 30, RelAttDB: relAttDB, PhaseRad: phase, DelayNs: 10},
	})
}

func snrGainDB(m *channel.Model, w cmx.Vector) float64 {
	single := m.Tx.SingleBeam(m.Paths[0].AoD)
	pm := cmplx.Abs(m.Effective(w, 0))
	ps := cmplx.Abs(m.Effective(single, 0))
	return 20 * math.Log10(pm/ps)
}

func TestWeightsUnitNormAndLobes(t *testing.T) {
	u := ula8()
	w, err := WeightsInto(u, []Beam{Reference(0), {Angle: dsp.Rad(30), Amp: 1, Phase: 0}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w.Norm()-1) > 1e-12 {
		t.Fatalf("norm %g", w.Norm())
	}
	// Two lobes, each carrying about half the single-beam gain.
	g0 := u.Gain(w, 0)
	g30 := u.Gain(w, dsp.Rad(30))
	if math.Abs(g0-4) > 1.0 || math.Abs(g30-4) > 1.0 {
		t.Fatalf("lobe gains %g, %g; want ≈4", g0, g30)
	}
}

func TestConstructiveMultibeamBeatsSingleBeam(t *testing.T) {
	// For every channel phase/attenuation, the correctly-matched 2-beam
	// outperforms the single beam (the paper's core claim).
	for _, att := range []float64{0, 3, 6, 10} {
		for _, ph := range []float64{0, 1, -2, math.Pi} {
			m := twoPathChannel(att, ph)
			delta, sigma := m.RelativeGain(1, 0)
			w, err := WeightsInto(m.Tx, []Beam{
				Reference(0),
				{Angle: dsp.Rad(30), Amp: delta, Phase: sigma},
			}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			gain := snrGainDB(m, w)
			if gain <= 0 {
				t.Fatalf("att=%g ph=%g: multi-beam gain %g dB ≤ 0", att, ph, gain)
			}
			// Theory: 10·log10(1 + δ²), allowing sidelobe slack.
			want := 10 * math.Log10(1+delta*delta)
			if math.Abs(gain-want) > 0.7 {
				t.Fatalf("att=%g ph=%g: gain %g dB want ≈%g", att, ph, gain, want)
			}
		}
	}
}

func TestTwoEqualPathsGiveThreeDB(t *testing.T) {
	m := twoPathChannel(0, 0.8)
	delta, sigma := m.RelativeGain(1, 0)
	w, _ := WeightsInto(m.Tx, []Beam{Reference(0), {Angle: dsp.Rad(30), Amp: delta, Phase: sigma}}, nil, nil)
	gain := snrGainDB(m, w)
	if math.Abs(gain-3.01) > 0.7 {
		t.Fatalf("equal-path gain %g dB, want ≈3", gain)
	}
}

func TestMultibeamApproachesOracle(t *testing.T) {
	// Multi-beam on the true per-path ratios should be within a whisker of
	// MRT on the full CSI (they are equal for exactly-sparse channels up to
	// steering-vector overlap).
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		m := channel.Cluster(rng, env.Band28GHz(), ula8(), channel.DefaultClusterParams())
		h := m.PerAntennaCSI(0)
		wOpt, err := Optimal(h)
		if err != nil {
			t.Fatal(err)
		}
		beams := make([]Beam, len(m.Paths))
		for k := range m.Paths {
			d, s := m.RelativeGain(k, 0)
			beams[k] = Beam{Angle: m.Paths[k].AoD, Amp: d, Phase: s}
		}
		w, err := WeightsInto(m.Tx, beams, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		pOracle := cmplx.Abs(m.Effective(wOpt, 0))
		pMB := cmplx.Abs(m.Effective(w, 0))
		gapDB := 20 * math.Log10(pOracle/pMB)
		if gapDB < -1e-9 {
			t.Fatalf("trial %d: multi-beam beat the oracle by %g dB", trial, -gapDB)
		}
		if gapDB > 1.0 {
			t.Fatalf("trial %d: multi-beam %g dB behind oracle", trial, gapDB)
		}
	}
}

func TestOptimalErrors(t *testing.T) {
	if _, err := Optimal(cmx.NewVector(4)); err == nil {
		t.Fatal("zero channel should fail")
	}
}

func TestWeightsErrors(t *testing.T) {
	u := ula8()
	if _, err := WeightsInto(u, nil, nil, nil); err == nil {
		t.Fatal("empty beams should fail")
	}
	if _, err := WeightsInto(u, []Beam{{Angle: 0, Amp: -1}}, nil, nil); err == nil {
		t.Fatal("negative amplitude should fail")
	}
	// Exact cancellation: two identical beams with opposite sign.
	if _, err := WeightsInto(u, []Beam{
		{Angle: 0, Amp: 1, Phase: 0},
		{Angle: 0, Amp: 1, Phase: math.Pi},
	}, nil, nil); err == nil {
		t.Fatal("cancelling beams should fail")
	}
}

func TestTheoreticalGainMatchesPaperFig14(t *testing.T) {
	// δ = −3 dB: perfect estimation gives 1.76 dB gain.
	delta := dsp.AmpFromDB(-3)
	peak := 10 * math.Log10(TheoreticalGain(delta, delta, 0))
	if math.Abs(peak-1.76) > 0.02 {
		t.Fatalf("peak gain %g dB, want 1.76", peak)
	}
	// Tolerates ±75° phase error before dropping below single-beam.
	at75 := 10 * math.Log10(TheoreticalGain(delta, delta, dsp.Rad(75)))
	if at75 < 0 {
		t.Fatalf("gain at 75° error %g dB, want ≥ 0", at75)
	}
	at80 := 10 * math.Log10(TheoreticalGain(delta, delta, dsp.Rad(80)))
	if at80 > 0 {
		t.Fatalf("gain at 80° error %g dB, want < 0", at80)
	}
	// 180° error is destructive and costs several dB.
	at180 := 10 * math.Log10(TheoreticalGain(delta, delta, math.Pi))
	if at180 > -3 {
		t.Fatalf("gain at 180° error %g dB, want strongly negative", at180)
	}
	// Zero applied amplitude degenerates to the single beam (0 dB).
	if g := TheoreticalGain(delta, 0, 0); math.Abs(g-1) > 1e-12 {
		t.Fatalf("zero-amplitude gain %g", g)
	}
}

func TestTheoreticalGainMatchesSimulation(t *testing.T) {
	// The closed form must agree with the actual array simulation.
	delta := dsp.AmpFromDB(-3)
	m := twoPathChannel(3, dsp.Rad(-40))
	_, sigma := m.RelativeGain(1, 0)
	for _, phaseErr := range []float64{0, dsp.Rad(40), dsp.Rad(100)} {
		for _, ampErrDB := range []float64{0, -6} {
			applied := delta * dsp.AmpFromDB(ampErrDB)
			w, err := WeightsInto(m.Tx, []Beam{
				Reference(0),
				{Angle: dsp.Rad(30), Amp: applied, Phase: sigma + phaseErr},
			}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			got := snrGainDB(m, w)
			want := 10 * math.Log10(TheoreticalGain(delta, applied, phaseErr))
			if math.Abs(got-want) > 0.6 {
				t.Fatalf("phaseErr=%g ampErrDB=%g: sim %g dB vs theory %g dB",
					phaseErr, ampErrDB, got, want)
			}
		}
	}
}

func TestSubArraySplitIsSubOptimal(t *testing.T) {
	m := twoPathChannel(3, 1.0)
	delta, sigma := m.RelativeGain(1, 0)
	beams := []Beam{Reference(0), {Angle: dsp.Rad(30), Amp: delta, Phase: sigma}}
	wFull, err := WeightsInto(m.Tx, beams, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wSplit, err := SubArraySplit(m.Tx, beams)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(wSplit.Norm()-1) > 1e-12 {
		t.Fatal("split beam not unit norm")
	}
	pFull := cmplx.Abs(m.Effective(wFull, 0))
	pSplit := cmplx.Abs(m.Effective(wSplit, 0))
	if pSplit >= pFull {
		t.Fatalf("sub-array split (%g) should underperform full-aperture (%g)", pSplit, pFull)
	}
	// But it must still form lobes at both angles.
	if m.Tx.Gain(wSplit, 0) < 1 || m.Tx.Gain(wSplit, dsp.Rad(30)) < 1 {
		t.Fatal("split multi-beam lost its lobes")
	}
}

func TestSubArraySplitErrors(t *testing.T) {
	u := ula8()
	if _, err := SubArraySplit(u, nil); err == nil {
		t.Fatal("empty beams should fail")
	}
	tooMany := make([]Beam, 9)
	for i := range tooMany {
		tooMany[i] = Reference(float64(i) * 0.1)
	}
	if _, err := SubArraySplit(u, tooMany); err == nil {
		t.Fatal("more beams than elements should fail")
	}
}

func TestThreeBeamOutperformsTwo(t *testing.T) {
	// On a 3-path channel, using all 3 paths beats using 2 beats using 1.
	m := channel.FromSpecs(env.Band28GHz(), ula8(), 80, []channel.PathSpec{
		{AoDDeg: 0},
		{AoDDeg: 35, RelAttDB: 4, PhaseRad: 1.0, DelayNs: 8},
		{AoDDeg: -30, RelAttDB: 7, PhaseRad: -0.5, DelayNs: 20},
	})
	mkBeams := func(k int) cmx.Vector {
		var beams []Beam
		for i := 0; i < k; i++ {
			d, s := m.RelativeGain(i, 0)
			beams = append(beams, Beam{Angle: m.Paths[i].AoD, Amp: d, Phase: s})
		}
		w, err := WeightsInto(m.Tx, beams, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	p1 := cmplx.Abs(m.Effective(mkBeams(1), 0))
	p2 := cmplx.Abs(m.Effective(mkBeams(2), 0))
	p3 := cmplx.Abs(m.Effective(mkBeams(3), 0))
	if !(p3 > p2 && p2 > p1) {
		t.Fatalf("monotonicity broken: %g, %g, %g", p1, p2, p3)
	}
}

// Property: TheoreticalGain is bounded by 1+δ² (perfect estimation) and
// reaches that bound only at zero phase error with matched amplitude.
func TestTheoreticalGainBoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 500; trial++ {
		delta := rng.Float64()         // δ ∈ [0, 1)
		applied := rng.Float64() * 1.5 // any applied amplitude
		phaseErr := rng.Float64() * math.Pi
		g := TheoreticalGain(delta, applied, phaseErr)
		bound := 1 + delta*delta
		if g > bound+1e-12 {
			t.Fatalf("gain %g exceeds bound %g (δ=%g a=%g ε=%g)", g, bound, delta, applied, phaseErr)
		}
	}
	// Bound attained at the optimum.
	delta := 0.6
	if g := TheoreticalGain(delta, delta, 0); math.Abs(g-(1+delta*delta)) > 1e-12 {
		t.Fatalf("optimum gain %g want %g", g, 1+delta*delta)
	}
}

// Property: Weights output is always unit-norm for any valid lobe set.
func TestWeightsUnitNormProperty(t *testing.T) {
	u := ula8()
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(4)
		var beams []Beam
		for i := 0; i < n; i++ {
			beams = append(beams, Beam{
				Angle: (rng.Float64() - 0.5) * math.Pi / 2,
				Amp:   0.05 + rng.Float64(),
				Phase: rng.Float64() * 2 * math.Pi,
			})
		}
		w, err := WeightsInto(u, beams, nil, nil)
		if err != nil {
			continue // rare near-cancellation is allowed to error
		}
		if math.Abs(w.Norm()-1) > 1e-9 {
			t.Fatalf("norm %g for beams %+v", w.Norm(), beams)
		}
	}
}
