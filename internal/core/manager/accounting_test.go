package manager

import (
	"math"
	"math/rand"
	"testing"

	"mmreliable/internal/antenna"
	"mmreliable/internal/link"
	"mmreliable/internal/nr"
	"mmreliable/internal/sim"
)

// TestSymbolDebtAccounting pins the §5.2-style overhead bookkeeping: on a
// static link with no refinements, steady-state training slots must equal
// (maintenance + CC-refresh probes)/14 within rounding, far below the
// one-slot-per-probe figure.
func TestSymbolDebtAccounting(t *testing.T) {
	mgr := newManager(t, 21)
	sc := staticScenario(1.0)
	if _, err := (sim.Runner{}).Run(sc, mgr); err != nil {
		t.Fatal(err)
	}
	nSlots := int(math.Ceil(1.0 / nr.Mu3().SlotDuration()))
	establishSlots := mgr.slotsFor(float64(mgr.cb.Len())*nr.Mu3().SSBDuration()) +
		(mgr.cfg.MaxBeams + 2*(mgr.cfg.MaxBeams-1) + (mgr.cfg.MaxBeams - 1))
	steady := mgr.TrainingSlots - establishSlots
	// Probe volume: 1 maintenance probe per 20 ms (+ occasional recovery or
	// refinement probes) plus 1 CC refresh per ms when eligible. At symbol
	// granularity that is at most ~(50 + 1000 + slack)/14 ≈ 90 slots per
	// second; at slot granularity it would be >1000.
	if steady > 150 {
		t.Fatalf("steady-state training slots %d: symbol-debt accounting broken", steady)
	}
	if steady <= 0 {
		t.Fatal("no maintenance ran at all")
	}
	frac := float64(steady) / float64(nSlots)
	if frac > 0.02 {
		t.Fatalf("steady-state overhead %.2f%%, want <2%%", frac*100)
	}
}

// TestRetrainReasonDiagnostics verifies the manager records why it
// retrained.
func TestRetrainReasonDiagnostics(t *testing.T) {
	mgr := newManager(t, 22)
	sc := staticScenario(0.3)
	if _, err := (sim.Runner{}).Run(sc, mgr); err != nil {
		t.Fatal(err)
	}
	if mgr.RetrainReasons["initial"] != 1 {
		t.Fatalf("reasons %v missing the initial training", mgr.RetrainReasons)
	}
	total := 0
	for _, n := range mgr.RetrainReasons {
		total += n
	}
	if total != mgr.Retrains {
		t.Fatalf("reason counts %v don't sum to Retrains %d", mgr.RetrainReasons, mgr.Retrains)
	}
}

// TestResetForcesRetraining: after Reset, the manager retrains from scratch
// and comes back up.
func TestResetForcesRetraining(t *testing.T) {
	mgr := newManager(t, 23)
	sc := staticScenario(0.3)
	if _, err := (sim.Runner{}).Run(sc, mgr); err != nil {
		t.Fatal(err)
	}
	if mgr.NumBeams() == 0 {
		t.Fatal("not established before reset")
	}
	retrains := mgr.Retrains
	mgr.Reset()
	if mgr.ActiveWeightsView() != nil {
		t.Fatal("Reset left active weights")
	}
	sc2 := staticScenario(0.3)
	out, err := (sim.Runner{}).Run(sc2, mgr)
	if err != nil {
		t.Fatal(err)
	}
	if mgr.Retrains != retrains+1 {
		t.Fatalf("retrains %d, want %d", mgr.Retrains, retrains+1)
	}
	if out["mmreliable"].Summary.MeanSNRdB < 15 {
		t.Fatalf("post-reset SNR %g", out["mmreliable"].Summary.MeanSNRdB)
	}
}

// TestManagerHonorsCustomBudget: a 10 dB weaker budget shifts the measured
// SNR by ≈10 dB — the budget plumbing is consistent end to end.
func TestManagerHonorsCustomBudget(t *testing.T) {
	run := func(txDBm float64, seed int64) float64 {
		b := link.DefaultBudget()
		b.TxPowerDBm = txDBm
		mgr, err := New("m", antenna.NewULA(8, 28e9), b, nr.Mu3(), DefaultConfig(), rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		out, err := (sim.Runner{Warmup: 0.05}).Run(staticScenario(0.3), mgr)
		if err != nil {
			t.Fatal(err)
		}
		return out["m"].Summary.MeanSNRdB
	}
	hi := run(15, 31)
	lo := run(5, 31)
	if math.Abs((hi-lo)-10) > 1.5 {
		t.Fatalf("10 dB budget change moved SNR by %g dB", hi-lo)
	}
}
