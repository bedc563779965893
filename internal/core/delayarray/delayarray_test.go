package delayarray

import (
	"math"
	"math/cmplx"
	"testing"

	"mmreliable/internal/antenna"
	"mmreliable/internal/channel"
	"mmreliable/internal/core/multibeam"
	"mmreliable/internal/dsp"
	"mmreliable/internal/env"
)

func panel16() *antenna.ULA { return antenna.NewULA(16, 28e9) }

// wideChannel builds a 2-path channel with the given delay spread and a
// strong (−1 dB) reflection.
func wideChannel(spreadNs float64) *channel.Model {
	return channel.FromSpecs(env.Band28GHz(), panel16(), 80, []channel.PathSpec{
		{AoDDeg: 0, DelayNs: 0},
		{AoDDeg: 30, RelAttDB: 1, PhaseRad: 0.7, DelayNs: spreadNs},
	})
}

func offsets() []float64 { return channel.SubcarrierOffsets(400e6, 64) }

func TestNewValidation(t *testing.T) {
	p := panel16()
	if _, err := New(p, nil); err == nil {
		t.Fatal("no groups should fail")
	}
	if _, err := New(p, []Group{{Coeff: 1, Delay: -1}}); err == nil {
		t.Fatal("negative delay should fail")
	}
	if _, err := New(p, []Group{{Coeff: 0}}); err == nil {
		t.Fatal("zero coefficients should fail")
	}
	if _, err := New(&antenna.ULA{}, []Group{{Coeff: 1}}); err == nil {
		t.Fatal("invalid panel should fail")
	}
}

func TestTRPConservedAcrossPanels(t *testing.T) {
	a, err := New(panel16(), []Group{
		{Angle: 0, Coeff: 1, Delay: 0},
		{Angle: dsp.Rad(30), Coeff: complex(0.8, 0.1), Delay: 5e-9},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{0, 200e6} {
		var trp float64
		for g := range a.Groups {
			trp += a.PanelWeights(g, f).Norm2()
		}
		if math.Abs(trp-1) > 1e-12 {
			t.Fatalf("TRP at f=%g is %g", f, trp)
		}
	}
}

func TestSinglePathNeedsNoDelayCompensation(t *testing.T) {
	// §3.4: a single-path channel already has a flat response with a plain
	// beam; the delay architecture is only needed for multipath.
	m := channel.FromSpecs(env.Band28GHz(), panel16(), 80, []channel.PathSpec{{AoDDeg: 0}})
	w := m.Tx.SingleBeam(0)
	resp := m.EffectiveWidebandInto(w, offsets(), nil)
	if r := RippleDB(resp); r > 0.01 {
		t.Fatalf("single-path ripple %g dB", r)
	}
}

func TestPlainMultibeamSuffersRipple(t *testing.T) {
	// Fig. 7: with 5 and 10 ns spreads, a plain (non-delay) multi-beam has
	// deep in-band fades.
	for _, spread := range []float64{5, 10} {
		m := wideChannel(spread)
		delta, sigma := m.RelativeGain(1, 0)
		w, err := multibeam.WeightsInto(m.Tx, []multibeam.Beam{
			multibeam.Reference(0),
			{Angle: dsp.Rad(30), Amp: delta, Phase: sigma},
		}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp := m.EffectiveWidebandInto(w, offsets(), nil)
		if r := RippleDB(resp); r < 6 {
			t.Fatalf("spread %g ns: plain multi-beam ripple only %g dB", spread, r)
		}
	}
}

func TestDelayCompensationFlattens(t *testing.T) {
	for _, spread := range []float64{5, 10} {
		m := wideChannel(spread)
		delta, sigma := m.RelativeGain(1, 0)
		angles := []float64{0, dsp.Rad(30)}
		ratios := []complex128{1, cmplx.Rect(delta, sigma)}
		delays := []float64{0, spread * 1e-9}
		a, err := ForChannel(m.Tx, angles, ratios, delays)
		if err != nil {
			t.Fatal(err)
		}
		resp := a.EffectiveWidebandInto(m, offsets(), nil)
		if r := RippleDB(resp); r > 1.0 {
			t.Fatalf("spread %g ns: compensated ripple %g dB", spread, r)
		}
	}
}

func TestDelayArrayBeatsSingleBeamAcrossBand(t *testing.T) {
	// Fig. 8: the delay-optimized response sits above the single-beam
	// response at every frequency for a strong 2-path channel, approaching
	// the 1+δ² combining gain at equal TRP.
	m := wideChannel(10)
	single := m.Tx.SingleBeam(0)
	respSingle := m.EffectiveWidebandInto(single, offsets(), nil)

	delta, sigma := m.RelativeGain(1, 0)
	a, err := ForChannel(m.Tx,
		[]float64{0, dsp.Rad(30)},
		[]complex128{1, cmplx.Rect(delta, sigma)},
		[]float64{0, 10e-9})
	if err != nil {
		t.Fatal(err)
	}
	respDelay := a.EffectiveWidebandInto(m, offsets(), nil)
	for k := range respDelay {
		if cmplx.Abs(respDelay[k]) <= cmplx.Abs(respSingle[k]) {
			t.Fatalf("subcarrier %d: delay array %g not above single beam %g",
				k, cmplx.Abs(respDelay[k]), cmplx.Abs(respSingle[k]))
		}
	}
	// Mean power gain ≈ 10·log10(1+δ²) (δ ≈ −1 dB ⇒ ≈2.55 dB).
	var gDelay, gSingle float64
	for k := range respDelay {
		gDelay += cmplx.Abs(respDelay[k]) * cmplx.Abs(respDelay[k])
		gSingle += cmplx.Abs(respSingle[k]) * cmplx.Abs(respSingle[k])
	}
	gainDB := 10 * math.Log10(gDelay/gSingle)
	want := 10 * math.Log10(1+delta*delta)
	if math.Abs(gainDB-want) > 0.6 {
		t.Fatalf("mean gain %g dB want ≈%g", gainDB, want)
	}
}

func TestCompensatingDelays(t *testing.T) {
	got := CompensatingDelays([]float64{10e-9, 25e-9, 13e-9})
	want := []float64{15e-9, 0, 12e-9}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-18 {
			t.Fatalf("delays %v want %v", got, want)
		}
	}
	if CompensatingDelays(nil) != nil {
		t.Fatal("nil input should give nil")
	}
	// Totals are equalized.
	base := []float64{3e-9, 7e-9}
	comp := CompensatingDelays(base)
	if base[0]+comp[0] != base[1]+comp[1] {
		t.Fatal("totals not equal")
	}
}

func TestForChannelValidation(t *testing.T) {
	if _, err := ForChannel(panel16(), []float64{0}, []complex128{1, 1}, []float64{0}); err == nil {
		t.Fatal("length mismatch should fail")
	}
}

func TestUncompensatedDelayArrayStillRipples(t *testing.T) {
	// Ablation: the panel architecture alone (delays left at zero) does not
	// fix the wideband problem — the delay lines do.
	m := wideChannel(10)
	delta, sigma := m.RelativeGain(1, 0)
	a, err := New(m.Tx, []Group{
		{Angle: 0, Coeff: 1, Delay: 0},
		{Angle: dsp.Rad(30), Coeff: cmplx.Conj(cmplx.Rect(delta, sigma)), Delay: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp := a.EffectiveWidebandInto(m, offsets(), nil)
	if r := RippleDB(resp); r < 6 {
		t.Fatalf("uncompensated ripple only %g dB", r)
	}
}

func TestRippleDB(t *testing.T) {
	flat := make([]complex128, 8)
	for i := range flat {
		flat[i] = 2
	}
	if r := RippleDB(flat); r > 1e-12 {
		t.Fatalf("flat ripple %g", r)
	}
	varying := []complex128{1, 2}
	if r := RippleDB(varying); math.Abs(r-10*math.Log10(4)) > 1e-9 {
		t.Fatalf("ripple %g", r)
	}
	withNull := []complex128{1, 0}
	if !math.IsInf(RippleDB(withNull), 1) {
		t.Fatal("null should give infinite ripple")
	}
}
