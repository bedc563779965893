package link

import (
	"math"
	"testing"

	"mmreliable/internal/cmx"
)

func TestNoiseFloor(t *testing.T) {
	b := DefaultBudget()
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	// −174 + 10·log10(400e6) + 7 ≈ −80.98 dBm.
	if got := b.NoiseFloorDBm(); math.Abs(got+80.98) > 0.05 {
		t.Fatalf("noise floor = %g", got)
	}
	bad := Budget{BandwidthHz: 0}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero bandwidth should fail")
	}
}

func TestSNRMatchesPaperIndoorScale(t *testing.T) {
	// 7 m indoor link at 28 GHz with an 8-element array:
	// FSPL(7 m) ≈ 78.3 dB, array gain 9 dB ⇒ |h_eff| ≈ 10^(−69.3/20).
	b := DefaultBudget()
	heff := math.Pow(10, -(78.3-9.0)/20)
	snr := b.SNRdB(heff)
	// Paper Fig. 15a: ≈27 dB peak indoors.
	if snr < 23 || snr > 30 {
		t.Fatalf("indoor SNR = %g dB, want ≈27", snr)
	}
	if !math.IsInf(b.SNRdB(0), -1) {
		t.Fatal("zero channel should be −Inf SNR")
	}
}

// TestWidebandSNRFlatEqualsNarrowband: a flat magnitude row reduced
// against an all-zero im row is the narrowband SNR of that amplitude.
func TestWidebandSNRFlatEqualsNarrowband(t *testing.T) {
	b := DefaultBudget()
	txLin, noiseLin := b.SNRTerms()
	amp := 3e-4
	mags := make([]float64, 32)
	for i := range mags {
		mags[i] = amp
	}
	wb := WidebandSNRdB(mags, make([]float64, len(mags)), txLin, noiseLin)
	nb := b.SNRdB(amp)
	if math.Abs(wb-nb) > 1e-9 {
		t.Fatalf("flat wideband %g vs narrowband %g", wb, nb)
	}
}

// TestWidebandSNRSplitCSI: a split complex CSI row reduces to the
// per-subcarrier capacity-equivalent SNR, and rotating every sample's phase
// (which leaves |h| unchanged) moves the result only by rounding.
func TestWidebandSNRSplitCSI(t *testing.T) {
	b := DefaultBudget()
	txLin, noiseLin := b.SNRTerms()
	const nsc = 48
	csi := make(cmx.Vector, nsc)
	mags := make([]float64, nsc)
	var sumLog float64
	for k := range csi {
		amp := 2e-4 * (1 + 0.5*math.Sin(0.3*float64(k)))
		csi[k] = complex(amp*math.Cos(0.7*float64(k)), amp*math.Sin(0.7*float64(k)))
		mags[k] = amp
		sumLog += math.Log2(1 + txLin*amp*amp/noiseLin)
	}
	want := 10 * math.Log10(math.Exp2(sumLog/nsc)-1)
	re, im := make([]float64, nsc), make([]float64, nsc)
	cmx.Split(csi, re, im)
	got := WidebandSNRdB(re, im, txLin, noiseLin)
	if math.Abs(got-want) > 1e-12*math.Abs(want) {
		t.Fatalf("split CSI %.15g dB, per-term sum %.15g dB", got, want)
	}
	if mag := WidebandSNRdB(mags, make([]float64, nsc), txLin, noiseLin); math.Abs(mag-got) > 1e-12*math.Abs(got) {
		t.Fatalf("magnitude row %.15g dB vs split CSI %.15g dB", mag, got)
	}
}

func TestWidebandSNRPenalizesSelectivity(t *testing.T) {
	txLin, noiseLin := DefaultBudget().SNRTerms()
	amp := 3e-4
	flat := make([]float64, 32)
	dips := make([]float64, 32)
	zero := make([]float64, 32)
	for i := range flat {
		flat[i] = amp
		if i%4 == 0 {
			dips[i] = amp / 100 // deep fade on 1/4 of the band
		} else {
			dips[i] = amp * 1.15 // energy moved to the rest
		}
	}
	if WidebandSNRdB(dips, zero, txLin, noiseLin) >= WidebandSNRdB(flat, zero, txLin, noiseLin) {
		t.Fatal("selective channel should have lower effective SNR")
	}
}

// TestWidebandSNRVanishing: an empty row and an all-zero row both have no
// capacity, so both reduce to −Inf.
func TestWidebandSNRVanishing(t *testing.T) {
	txLin, noiseLin := DefaultBudget().SNRTerms()
	if got := WidebandSNRdB(nil, nil, txLin, noiseLin); !math.IsInf(got, -1) {
		t.Fatalf("empty row = %g, want −Inf", got)
	}
	zero := make([]float64, 16)
	if got := WidebandSNRdB(zero, zero, txLin, noiseLin); !math.IsInf(got, -1) {
		t.Fatalf("all-zero row = %g, want −Inf", got)
	}
}

func TestNoiseToTxAmpRatio(t *testing.T) {
	b := DefaultBudget()
	r := b.NoiseToTxAmpRatio()
	// SNR for a channel amplitude equal to the ratio should be 0 dB.
	if snr := b.SNRdB(r); math.Abs(snr) > 1e-9 {
		t.Fatalf("SNR at noise-amplitude channel = %g, want 0", snr)
	}
}

func TestCQILadderMonotone(t *testing.T) {
	prevSNR, prevEff := math.Inf(-1), 0.0
	for _, e := range CQITable {
		if e.MinSNRdB <= prevSNR {
			t.Fatalf("CQI %d threshold not increasing", e.Index)
		}
		if e.Efficiency <= prevEff {
			t.Fatalf("CQI %d efficiency not increasing", e.Index)
		}
		prevSNR, prevEff = e.MinSNRdB, e.Efficiency
	}
}

// TestCQIFromSNRMatchesFullScan pins the top-down early exit against the
// rule it replaced — scan the whole ascending table and keep the last entry
// met — over a dense SNR sweep, every exact threshold and its float
// neighbours, NaN and ±Inf.
func TestCQIFromSNRMatchesFullScan(t *testing.T) {
	fullScan := func(snrDB float64) (CQIEntry, bool) {
		var best CQIEntry
		found := false
		for _, e := range CQITable {
			if snrDB >= e.MinSNRdB {
				best, found = e, true
			}
		}
		return best, found
	}
	snrs := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	for _, e := range CQITable {
		snrs = append(snrs, e.MinSNRdB, math.Nextafter(e.MinSNRdB, math.Inf(-1)), math.Nextafter(e.MinSNRdB, math.Inf(1)))
	}
	for x := -20.0; x <= 40; x += 0.001 {
		snrs = append(snrs, x)
	}
	for _, snr := range snrs {
		got, gotOK := CQIFromSNR(snr)
		want, wantOK := fullScan(snr)
		if got != want || gotOK != wantOK {
			t.Fatalf("CQIFromSNR(%v) = %+v, %v; full scan gives %+v, %v", snr, got, gotOK, want, wantOK)
		}
	}
}

func TestCQIFromSNR(t *testing.T) {
	if _, ok := CQIFromSNR(-10); ok {
		t.Fatal("-10 dB should be out of range")
	}
	e, ok := CQIFromSNR(-6.7)
	if !ok || e.Index != 1 {
		t.Fatalf("at −6.7 dB got %+v", e)
	}
	e, _ = CQIFromSNR(12)
	if e.Index != 10 {
		t.Fatalf("at 12 dB got CQI %d", e.Index)
	}
	e, _ = CQIFromSNR(50)
	if e.Index != 15 {
		t.Fatalf("at 50 dB got CQI %d", e.Index)
	}
}

func TestSpectralEfficiencyOutageGate(t *testing.T) {
	// Below 6 dB → 0 even though CQI 1-7 would decode.
	if got := SpectralEfficiency(5.9); got != 0 {
		t.Fatalf("below-threshold efficiency %g", got)
	}
	if got := SpectralEfficiency(6.0); got <= 0 {
		t.Fatal("at-threshold efficiency should be positive")
	}
	// Paper's ≈1.5 bits/s/Hz average implies SNR around CQI 4-5; check scale.
	if eff := SpectralEfficiency(8.5); eff < 2.5 || eff > 4 {
		t.Fatalf("efficiency at 8.5 dB = %g", eff)
	}
}

func TestThroughput(t *testing.T) {
	// 27 dB, 400 MHz, no overhead → CQI 15: 7.4063 b/s/Hz ⇒ ≈2.96 Gb/s.
	got := Throughput(27, 400e6, 0)
	if math.Abs(got-7.4063*400e6) > 1 {
		t.Fatalf("throughput = %g", got)
	}
	if Throughput(27, 400e6, 0.5) != got/2 {
		t.Fatal("overhead scaling wrong")
	}
	if Throughput(27, 400e6, 1.2) != 0 {
		t.Fatal("overhead ≥ 1 should zero throughput")
	}
	if Throughput(27, 400e6, -0.5) != got {
		t.Fatal("negative overhead should clamp to 0")
	}
	if Throughput(0, 400e6, 0) != 0 {
		t.Fatal("below-outage throughput should be 0")
	}
}

func TestMeterReliability(t *testing.T) {
	m := NewMeter()
	if m.Reliability() != 0 || m.MeanThroughput() != 0 {
		t.Fatal("empty meter should report zeros")
	}
	// 6 good slots, 2 outage, 2 training.
	for i := 0; i < 6; i++ {
		m.Record(20, false, 1e9)
	}
	m.Record(3, false, 0)
	m.Record(2, false, 0)
	m.Record(25, true, 0)
	m.Record(25, true, 0)
	if m.Slots() != 10 {
		t.Fatalf("slots = %d", m.Slots())
	}
	if got := m.Reliability(); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("reliability = %g", got)
	}
	if got := m.MeanThroughput(); math.Abs(got-6e8) > 1 {
		t.Fatalf("mean throughput = %g", got)
	}
	if got := m.TRProduct(); math.Abs(got-3.6e8) > 1 {
		t.Fatalf("TR product = %g", got)
	}
	if m.MinSNRdB() != 2 {
		t.Fatalf("min SNR = %g", m.MinSNRdB())
	}
}

func TestMeterOutageEpisodes(t *testing.T) {
	m := NewMeter()
	seq := []float64{20, 3, 3, 20, 3, 20, 20}
	for _, s := range seq {
		m.Record(s, false, 0)
	}
	if got := m.OutageEvents(); got != 2 {
		t.Fatalf("outage episodes = %d want 2", got)
	}
}

func TestMeterOutageDurations(t *testing.T) {
	m := NewMeter()
	// 20 | 3 3 3 | 20 | 3 | 20 20 | 3 3 (open episode)
	seq := []float64{20, 3, 3, 3, 20, 3, 20, 20, 3, 3}
	for _, s := range seq {
		m.Record(s, false, 0)
	}
	if got := m.OutageSlots(); got != 6 {
		t.Fatalf("outage slots = %d want 6", got)
	}
	if got := m.MaxOutageSlots(); got != 3 {
		t.Fatalf("max outage run = %d want 3", got)
	}
	durs := m.OutageDurations(nil)
	want := []float64{3, 1, 2} // closed 3, closed 1, open 2
	if len(durs) != len(want) {
		t.Fatalf("durations %v want %v", durs, want)
	}
	for i := range want {
		if durs[i] != want[i] {
			t.Fatalf("durations %v want %v", durs, want)
		}
	}
	// Closing the open episode moves it into the closed list unchanged.
	m.Record(20, false, 0)
	durs = m.OutageDurations(durs[:0])
	if len(durs) != 3 || durs[2] != 2 {
		t.Fatalf("durations after close %v", durs)
	}
	s := m.Summarize()
	if s.OutageSlots != 6 || s.MaxOutageSlots != 3 {
		t.Fatalf("summary outage fields %+v", s)
	}
	// Training slots count toward outage durations too (the paper charges
	// training time against availability).
	m2 := NewMeter()
	m2.Record(20, true, 0)
	if m2.OutageSlots() != 1 || m2.MaxOutageSlots() != 1 {
		t.Fatalf("training slot not counted: %d/%d", m2.OutageSlots(), m2.MaxOutageSlots())
	}
}

// TestMeterOutageRingBound pins the bounded episode history: past
// maxOutageRuns closed episodes the ring overwrites the oldest in place
// (no allocation), keeps the most recent ones in onset order, and leaves
// the aggregate counters exact.
func TestMeterOutageRingBound(t *testing.T) {
	m := NewMeter()
	// Close maxOutageRuns+10 episodes of increasing length 1, 2, 3, ...
	total := maxOutageRuns + 10
	for i := 1; i <= total; i++ {
		for j := 0; j < i; j++ {
			m.Record(0, false, 0) // outage slot
		}
		m.Record(20, false, 0) // closes the episode
	}
	if got := m.OutageEvents(); got != total {
		t.Fatalf("OutageEvents = %d want %d", got, total)
	}
	if got := m.MaxOutageSlots(); got != total {
		t.Fatalf("MaxOutageSlots = %d want %d", got, total)
	}
	if got := m.DroppedOutageRuns(); got != 10 {
		t.Fatalf("DroppedOutageRuns = %d want 10", got)
	}
	durs := m.OutageDurations(nil)
	if len(durs) != maxOutageRuns {
		t.Fatalf("retained %d durations want %d", len(durs), maxOutageRuns)
	}
	// The most recent maxOutageRuns episodes, oldest first: 11, 12, ..., total.
	for i, d := range durs {
		if want := float64(11 + i); d != want {
			t.Fatalf("durs[%d] = %g want %g", i, d, want)
		}
	}
	// The full ring no longer allocates per episode.
	avg := testing.AllocsPerRun(20, func() {
		m.Record(0, false, 0)
		m.Record(20, false, 0)
	})
	if avg != 0 {
		t.Fatalf("full ring allocates %.1f allocs/episode, want 0", avg)
	}
}

func TestMeterInfSNR(t *testing.T) {
	m := NewMeter()
	m.Record(math.Inf(-1), false, 0)
	m.Record(10, false, 5e8)
	// −Inf must not poison the mean.
	if got := m.MeanSNRdB(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("mean SNR = %g", got)
	}
}

func TestSummary(t *testing.T) {
	m := NewMeter()
	m.Record(20, false, 1e9)
	s := m.Summarize()
	if s.Reliability != 1 || s.MeanThroughput != 1e9 {
		t.Fatalf("summary %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty summary string")
	}
}
