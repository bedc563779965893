package link

import (
	"math"
	"math/rand"
	"testing"
)

func TestRateAdapterValidate(t *testing.T) {
	if err := NewRateAdapter().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &RateAdapter{StepUpDB: 0, StepDownDB: 0.1, MaxMarginDB: 10}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero step should fail")
	}
}

func TestNoTransmissionWithoutEstimate(t *testing.T) {
	r := NewRateAdapter()
	if thr, ok := r.Transmit(30, 400e6); ok || thr != 0 {
		t.Fatal("transmitted without any estimate")
	}
}

func TestPerfectEstimateMatchesGenie(t *testing.T) {
	r := NewRateAdapter()
	const snr = 20.0
	r.Observe(snr)
	thr, ok := r.Transmit(snr, 400e6)
	if !ok {
		t.Fatal("transmission failed with a perfect estimate")
	}
	if want := Throughput(snr, 400e6, 0); math.Abs(thr-want) > 1 {
		t.Fatalf("throughput %g vs genie %g", thr, want)
	}
}

func TestOptimisticEstimateFailsThenBacksOff(t *testing.T) {
	r := NewRateAdapter()
	r.Observe(22) // true channel is only 15 dB: 7 dB optimistic
	fails := 0
	for i := 0; i < 20; i++ {
		if _, ok := r.Transmit(15, 400e6); !ok {
			fails++
		} else {
			break
		}
	}
	if fails == 0 {
		t.Fatal("optimistic MCS never failed")
	}
	if r.marginDB == 0 {
		t.Fatal("margin did not grow after NACKs")
	}
	// After backing off, transmissions succeed again.
	if _, ok := r.Transmit(15, 400e6); !ok {
		t.Fatalf("still failing after %g dB margin", r.marginDB)
	}
}

func TestOutageGate(t *testing.T) {
	r := NewRateAdapter()
	r.Observe(5) // below the 6 dB threshold
	thr, ok := r.Transmit(5, 400e6)
	if ok || thr != 0 {
		t.Fatal("transmitted below the outage threshold")
	}
	if r.Acks+r.Nacks != 0 {
		t.Fatal("outage gate should not count as a transmission")
	}
}

func TestMarginCaps(t *testing.T) {
	r := NewRateAdapter()
	r.Observe(25)
	for i := 0; i < 100; i++ {
		r.Transmit(-30, 400e6) // every block fails
	}
	if r.marginDB > r.MaxMarginDB {
		t.Fatalf("margin %g exceeded cap", r.marginDB)
	}
	// Margin decays to zero under sustained success.
	r2 := NewRateAdapter()
	r2.marginDB = 3
	r2.Observe(20)
	for i := 0; i < 100; i++ {
		r2.Transmit(30, 400e6)
	}
	if r2.marginDB != 0 {
		t.Fatalf("margin %g did not decay to 0", r2.marginDB)
	}
}

func TestOLLAConvergesToBLERTarget(t *testing.T) {
	// Noisy estimates (±2 dB) on a fading channel: the outer loop should
	// settle near the StepDown/StepUp = 10% BLER target.
	r := NewRateAdapter()
	rng := rand.New(rand.NewSource(9))
	const meanSNR = 18.0
	warm := 0
	for i := 0; i < 20000; i++ {
		truth := meanSNR + 2*rng.NormFloat64()
		r.Observe(truth + 2*rng.NormFloat64())
		r.Transmit(truth, 400e6)
		if i == 2000 {
			// Discard the warm-up phase from the statistic.
			warm = r.Nacks
			r.Acks, r.Nacks = 0, 0
			_ = warm
		}
	}
	bler := r.BLER()
	if bler < 0.02 || bler > 0.25 {
		t.Fatalf("steady-state BLER %g, want ≈0.1", bler)
	}
}

func TestAdaptiveThroughputCloseToGenie(t *testing.T) {
	// With good estimates, the adapter's long-run throughput lands within
	// ~20% of the genie's.
	r := NewRateAdapter()
	rng := rand.New(rand.NewSource(10))
	var genie, adaptive float64
	const meanSNR = 15.0
	for i := 0; i < 10000; i++ {
		truth := meanSNR + 1.5*rng.NormFloat64()
		genie += Throughput(truth, 400e6, 0)
		r.Observe(truth + 1*rng.NormFloat64())
		thr, _ := r.Transmit(truth, 400e6)
		adaptive += thr
	}
	ratio := adaptive / genie
	if ratio < 0.75 || ratio > 1.02 {
		t.Fatalf("adaptive/genie throughput ratio %g", ratio)
	}
}

func TestBLERZeroBeforeTraffic(t *testing.T) {
	if NewRateAdapter().BLER() != 0 {
		t.Fatal("BLER before traffic should be 0")
	}
}
