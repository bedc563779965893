package nr

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
	"mmreliable/internal/link"
)

func testSounder(t *testing.T, noise float64, imp Impairments) *Sounder {
	t.Helper()
	s, err := NewSounder(Mu3(), 400e6, 64, noise, imp, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testChannel() *channel.Model {
	return channel.FromSpecs(env.Band28GHz(), antenna.NewULA(8, 28e9), 80, []channel.PathSpec{
		{AoDDeg: 0},
		{AoDDeg: 30, RelAttDB: 5, PhaseRad: 1.0, DelayNs: 12},
	})
}

func TestNumerologyMu3(t *testing.T) {
	n := Mu3()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	// Symbol ≈ 8.93 µs, slot ≈ 125 µs.
	if math.Abs(n.SymbolDuration()-8.93e-6) > 0.05e-6 {
		t.Fatalf("symbol duration %g", n.SymbolDuration())
	}
	if math.Abs(n.SlotDuration()-125e-6) > 1e-6 {
		t.Fatalf("slot duration %g", n.SlotDuration())
	}
	if math.Abs(n.CSIRSDuration()-0.125e-3) > 2e-6 {
		t.Fatalf("CSI-RS duration %g", n.CSIRSDuration())
	}
	if math.Abs(n.SSBDuration()-0.5e-3) > 5e-6 {
		t.Fatalf("SSB duration %g", n.SSBDuration())
	}
	if err := (Numerology{}).Validate(); err == nil {
		t.Fatal("zero numerology should fail")
	}
}

func TestNewSounderValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewSounder(Mu3(), 400e6, 48, 0, Impairments{}, rng); err == nil {
		t.Fatal("non-pow2 subcarriers should fail")
	}
	if _, err := NewSounder(Mu3(), 0, 64, 0, Impairments{}, rng); err == nil {
		t.Fatal("zero bandwidth should fail")
	}
	if _, err := NewSounder(Mu3(), 400e6, 64, -1, Impairments{}, rng); err == nil {
		t.Fatal("negative noise should fail")
	}
}

// trueCSI is the noiseless wideband channel of m under TX beam w — what an
// ideal probe would measure.
func trueCSI(m *channel.Model, w cmx.Vector, offs []float64) cmx.Vector {
	re, im := make([]float64, len(offs)), make([]float64, len(offs))
	m.EffectiveWidebandSplitInto(w, offs, re, im)
	h := make(cmx.Vector, len(offs))
	cmx.Combine(re, im, h)
	return h
}

func TestNoiselessProbeIsExact(t *testing.T) {
	s := testSounder(t, 0, Impairments{})
	m := testChannel()
	w := m.Tx.SingleBeam(0)
	est := s.Probe(m, w)
	truth := trueCSI(m, w, s.SubcarrierOffsets())
	if est.Sub(truth).Norm() > 1e-12*truth.Norm() {
		t.Fatalf("noiseless probe error %g", est.Sub(truth).Norm())
	}
	if s.Probes != 1 {
		t.Fatalf("probe count %d", s.Probes)
	}
}

func TestCFOPreservesMagnitude(t *testing.T) {
	s := testSounder(t, 0, DefaultImpairments())
	m := testChannel()
	w := m.Tx.SingleBeam(0)
	truth := trueCSI(m, w, s.SubcarrierOffsets())
	est1 := s.Probe(m, w)
	est2 := s.Probe(m, w)
	for k := range truth {
		if math.Abs(cmplx.Abs(est1[k])-cmplx.Abs(truth[k])) > 1e-12 {
			t.Fatalf("magnitude corrupted at %d", k)
		}
	}
	// Phases differ across probes (CFO), magnitudes agree.
	phaseDiff := cmplx.Phase(est1[10]) - cmplx.Phase(est2[10])
	if math.Abs(dsp.WrapPhase(phaseDiff)) < 1e-6 {
		t.Fatal("CFO should randomize inter-probe phase")
	}
	if math.Abs(RSS(est1)-RSS(est2)) > 1e-12 {
		t.Fatal("RSS should be CFO-invariant")
	}
}

func TestSFOAddsLinearPhaseOnly(t *testing.T) {
	s := testSounder(t, 0, Impairments{SFOMaxSlope: 1.0})
	m := testChannel()
	w := m.Tx.SingleBeam(0)
	truth := trueCSI(m, w, s.SubcarrierOffsets())
	est := s.Probe(m, w)
	// The phase error est/truth must be linear in subcarrier index.
	err0 := cmplx.Phase(est[0] / truth[0])
	errN := cmplx.Phase(est[len(est)-1] / truth[len(truth)-1])
	mid := len(est) / 2
	errMid := cmplx.Phase(est[mid] / truth[mid])
	predicted := err0 + (errN-err0)*float64(mid)/float64(len(est)-1)
	if math.Abs(dsp.WrapPhase(errMid-predicted)) > 1e-6 {
		t.Fatalf("SFO phase not linear: %g vs %g", errMid, predicted)
	}
}

func TestProbeNoiseScale(t *testing.T) {
	noise := 1e-5
	s := testSounder(t, noise, Impairments{})
	m := testChannel()
	w := m.Tx.SingleBeam(0)
	truth := trueCSI(m, w, s.SubcarrierOffsets())
	// Average the empirical per-subcarrier noise power over many probes.
	var acc float64
	const probes = 200
	for p := 0; p < probes; p++ {
		est := s.Probe(m, w)
		acc += est.Sub(truth).Norm2() / float64(len(est))
	}
	got := acc / probes
	want := noise * noise
	if got < want/2 || got > want*2 {
		t.Fatalf("noise power %g, want ≈ %g", got, want)
	}
}

func TestRSS(t *testing.T) {
	if RSS(nil) != 0 {
		t.Fatal("RSS(nil) != 0")
	}
	csi := cmx.Vector{1, 1i, complex(0, -2)}
	if got := RSS(csi); math.Abs(got-2) > 1e-12 {
		t.Fatalf("RSS = %g", got)
	}
}

func TestCIRPeaksAtPathDelays(t *testing.T) {
	s := testSounder(t, 0, Impairments{})
	// Two paths at 0 ns and 25 ns (10 samples apart at 2.5 ns spacing).
	m := channel.FromSpecs(env.Band28GHz(), antenna.NewULA(8, 28e9), 80, []channel.PathSpec{
		{AoDDeg: 0, DelayNs: 0},
		{AoDDeg: 30, RelAttDB: 3, DelayNs: 25},
	})
	// Beam that excites both paths.
	h := m.PerAntennaCSI(0)
	w := h.Conj().Normalize()
	cir := s.CIR(s.Probe(m, w))
	mags := cir.Abs()
	// Peak 1 at bin 0, peak 2 at bin 10.
	if mags[0] < mags[1] || mags[0] < mags[63] {
		t.Fatalf("no peak at bin 0: %v", mags[:4])
	}
	peak2 := 10
	if mags[peak2] < mags[peak2-2] || mags[peak2] < mags[peak2+2] {
		t.Fatalf("no peak at bin %d: %v", peak2, mags[7:14])
	}
	if s.SampleSpacing() != 2.5e-9 {
		t.Fatalf("sample spacing %g", s.SampleSpacing())
	}
}

func TestCIRPanicsOnWrongLength(t *testing.T) {
	s := testSounder(t, 0, Impairments{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.CIR(make(cmx.Vector, 16))
}

func TestDelayKernelMatchesChannel(t *testing.T) {
	// The dictionary column for delay τ must equal the measured CIR of a
	// unit single path at that delay, up to the path's complex amplitude.
	s := testSounder(t, 0, Impairments{})
	tau := 7.3e-9
	m := channel.FromSpecs(env.Band28GHz(), antenna.NewULA(8, 28e9), 0, []channel.PathSpec{
		{AoDDeg: 0, DelayNs: tau * 1e9},
	})
	w := m.Tx.SingleBeam(0)
	cir := s.CIR(s.Probe(m, w))
	kern := s.DelayKernel(tau)
	// cir = α·kern for a single complex α: check collinearity.
	alpha := kern.Hdot(cir)
	alpha /= complex(kern.Norm2(), 0)
	if cir.Sub(kern.Scaled(alpha)).Norm() > 1e-9*cir.Norm() {
		t.Fatal("kernel does not match measured CIR shape")
	}
}

func TestSweepFindsBothPaths(t *testing.T) {
	s := testSounder(t, 1e-6, DefaultImpairments())
	m := testChannel()
	u := m.Tx
	cb := antenna.DFTCodebook(u, 33, dsp.Rad(-60), dsp.Rad(60))
	res := Sweep(s, m, cb, 3, 4, 20)
	if res.NumProbe != 33 {
		t.Fatalf("probes %d", res.NumProbe)
	}
	if math.Abs(res.AirTime-33*s.Num.SSBDuration()) > 1e-12 {
		t.Fatalf("air time %g", res.AirTime)
	}
	if len(res.Peaks) < 2 {
		t.Fatalf("found %d peaks, want ≥ 2", len(res.Peaks))
	}
	angles := res.Angles(cb)
	// Strongest peak near 0°, second near 30°.
	if math.Abs(dsp.Deg(angles[0])) > 5 {
		t.Fatalf("first peak at %g°", dsp.Deg(angles[0]))
	}
	if math.Abs(dsp.Deg(angles[1])-30) > 6 {
		t.Fatalf("second peak at %g°", dsp.Deg(angles[1]))
	}
	// RSS at the LOS beam should be the global max.
	maxIdx := 0
	for i, r := range res.RSS {
		if r > res.RSS[maxIdx] {
			maxIdx = i
		}
	}
	if maxIdx != res.Peaks[0] {
		t.Fatal("first peak is not the global max")
	}
}

func TestSelectPeaks(t *testing.T) {
	rss := []float64{1, 5, 2, 1, 1, 4, 1, 0.001}
	peaks := SelectPeaks(rss, 2, 2, 20)
	if len(peaks) != 2 || peaks[0] != 1 || peaks[1] != 5 {
		t.Fatalf("peaks = %v", peaks)
	}
	// Dynamic range filter: 0.001 is 37 dB below 5 → excluded.
	rss2 := []float64{0.001, 0, 5, 0, 0}
	peaks2 := SelectPeaks(rss2, 3, 1, 20)
	if len(peaks2) != 1 || peaks2[0] != 2 {
		t.Fatalf("peaks2 = %v", peaks2)
	}
	// Separation filter: everything within the mask collapses to one peak.
	rss3 := []float64{0, 4, 5, 4, 0}
	peaks3 := SelectPeaks(rss3, 3, 3, 30)
	if len(peaks3) != 1 {
		t.Fatalf("peaks3 = %v", peaks3)
	}
	// Merged hump: a second path that only shows as a shoulder (no local
	// maximum) is still found once the main lobe is masked.
	hump := []float64{1, 3, 5, 4.5, 4, 2, 1}
	peaksH := SelectPeaks(hump, 2, 2, 20)
	if len(peaksH) != 2 || peaksH[0] != 2 || peaksH[1] != 4 {
		t.Fatalf("hump peaks = %v", peaksH)
	}
	if SelectPeaks(nil, 3, 1, 20) != nil {
		t.Fatal("nil input should give nil")
	}
	if SelectPeaks(rss, 0, 1, 20) != nil {
		t.Fatal("maxBeams=0 should give nil")
	}
}

func TestOverheadModelMatchesFig18d(t *testing.T) {
	o := OverheadModel{Num: Mu3()}
	// Paper: 3 ms at 8 antennas, 6 ms at 64 for 5G NR log-scanning.
	if got := o.NRTrainingTime(8); math.Abs(got-3e-3) > 0.1e-3 {
		t.Fatalf("NR training at 8 antennas = %g", got)
	}
	if got := o.NRTrainingTime(64); math.Abs(got-6e-3) > 0.2e-3 {
		t.Fatalf("NR training at 64 antennas = %g", got)
	}
	if o.NRTrainingTime(1) != 0 {
		t.Fatal("single antenna needs no training")
	}
	// mmReliable: 0.4 ms for 2-beam (3 probes), 0.6 ms for 3-beam (5).
	if got := o.MaintenanceProbes(2); got != 3 {
		t.Fatalf("2-beam probes = %d", got)
	}
	if got := o.MaintenanceProbes(3); got != 5 {
		t.Fatalf("3-beam probes = %d", got)
	}
	if got := o.MaintenanceTime(2); math.Abs(got-0.4e-3) > 0.05e-3 {
		t.Fatalf("2-beam maintenance = %g", got)
	}
	if got := o.MaintenanceTime(3); math.Abs(got-0.6e-3) > 0.05e-3 {
		t.Fatalf("3-beam maintenance = %g", got)
	}
	// Flat in antenna count by construction; exhaustive is linear.
	if o.ExhaustiveTrainingTime(64) != 64*Mu3().SSBDuration() {
		t.Fatal("exhaustive time wrong")
	}
}

func TestProbeSNRAgainstBudget(t *testing.T) {
	// End-to-end: with the default budget's noise amplitude, the wideband
	// SNR measured from probes of the 7 m indoor channel lands near the
	// paper's ≈27 dB.
	b := link.DefaultBudget()
	s, err := NewSounder(Mu3(), b.BandwidthHz, 64, b.NoiseToTxAmpRatio(), DefaultImpairments(), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	// 7 m LOS at 28 GHz: loss ≈ 78.3 dB.
	m := channel.FromSpecs(env.Band28GHz(), antenna.NewULA(8, 28e9), env.Band28GHz().PathLossDB(7), []channel.PathSpec{
		{AoDDeg: 0},
	})
	w := m.Tx.SingleBeam(0)
	est := s.Probe(m, w)
	snr := b.WidebandSNRdB(est)
	if snr < 23 || snr > 31 {
		t.Fatalf("probe SNR = %g dB, want ≈27", snr)
	}
}
