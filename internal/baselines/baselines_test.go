package baselines

import (
	"math"
	"math/rand"
	"testing"

	"mmreliable/internal/antenna"
	"mmreliable/internal/channel"
	"mmreliable/internal/core/manager"
	"mmreliable/internal/env"
	"mmreliable/internal/events"
	"mmreliable/internal/link"
	"mmreliable/internal/motion"
	"mmreliable/internal/nr"
	"mmreliable/internal/sim"
)

func ula8() *antenna.ULA { return antenna.NewULA(8, 28e9) }

func staticScenario(dur float64) *sim.Scenario {
	return &sim.Scenario{
		Env:      env.ConferenceRoom(env.Band28GHz()),
		GNB:      env.GNBPose(true),
		UE:       motion.Static{Pose: env.Pose{Pos: env.Vec2{X: 6, Y: 2.6}, Facing: math.Pi}},
		Duration: dur,
		Num:      nr.Mu3(),
		TxArray:  ula8(),
		MaxPaths: 3,
	}
}

func TestReactiveEstablishesAndHolds(t *testing.T) {
	b, err := NewSingleBeamReactive(ula8(), link.DefaultBudget(), nr.Mu3(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Runner{}.Run(staticScenario(0.3), b)
	if err != nil {
		t.Fatal(err)
	}
	s := out["reactive"].Summary
	if s.Reliability < 0.9 {
		t.Fatalf("static reactive reliability %g", s.Reliability)
	}
	if s.MeanSNRdB < 15 {
		t.Fatalf("mean SNR %g", s.MeanSNRdB)
	}
	if b.Retrains != 1 {
		t.Fatalf("retrains %d", b.Retrains)
	}
}

func TestReactiveSuffersFromBlockage(t *testing.T) {
	// A 26 dB LOS blockage forces the single-beam link into outage and a
	// reactive retrain; reliability takes the hit (Fig. 16/18a).
	b, err := NewSingleBeamReactive(ula8(), link.DefaultBudget(), nr.Mu3(), rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	sc := staticScenario(1.0)
	sc.Blockage = events.Schedule{{
		PathIndex: 0, Start: 0.3, Duration: 0.3, DepthDB: 26,
		RampTime: events.RampFor(26),
	}}
	out, err := sim.Runner{}.Run(sc, b)
	if err != nil {
		t.Fatal(err)
	}
	s := out["reactive"].Summary
	// The reaction latency (outage confirmation + SSB wait + training) is a
	// hard reliability charge the reactive design cannot avoid.
	if s.Reliability > 0.99 {
		t.Fatalf("reactive reliability %g suspiciously high under blockage", s.Reliability)
	}
	if b.Retrains < 2 {
		t.Fatalf("retrains %d, want reactive retraining", b.Retrains)
	}
	if s.OutageEvents == 0 {
		t.Fatal("no outage recorded")
	}
}

func TestBeamSpySwitchesWithoutFullRetrain(t *testing.T) {
	bs, err := NewBeamSpy(ula8(), link.DefaultBudget(), nr.Mu3(), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	sc := staticScenario(1.0)
	sc.Blockage = events.Schedule{{
		PathIndex: 0, Start: 0.3, Duration: 0.3, DepthDB: 26,
		RampTime: events.RampFor(26),
	}}
	out, err := sim.Runner{}.Run(sc, bs)
	if err != nil {
		t.Fatal(err)
	}
	// BeamSpy hops to the stored alternate path: at most the initial
	// training plus possibly one recovery, but the hop itself is 1 slot.
	rel := out["beamspy"].Summary.Reliability

	// Compare with plain reactive under the identical scenario.
	rc, err := NewSingleBeamReactive(ula8(), link.DefaultBudget(), nr.Mu3(), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	sc2 := staticScenario(1.0)
	sc2.Blockage = sc.Blockage
	out2, err := sim.Runner{}.Run(sc2, rc)
	if err != nil {
		t.Fatal(err)
	}
	if rel < out2["reactive"].Summary.Reliability {
		t.Fatalf("beamspy (%g) below reactive (%g)", rel, out2["reactive"].Summary.Reliability)
	}
}

func TestWideBeamLowerGain(t *testing.T) {
	wb, err := NewWideBeam(ula8(), link.DefaultBudget(), nr.Mu3(), rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	rc, err := NewSingleBeamReactive(ula8(), link.DefaultBudget(), nr.Mu3(), rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Runner{}.Run(staticScenario(0.3), wb, rc)
	if err != nil {
		t.Fatal(err)
	}
	if out["widebeam"].Summary.MeanSNRdB >= out["reactive"].Summary.MeanSNRdB {
		t.Fatalf("widebeam SNR %g not below narrow %g",
			out["widebeam"].Summary.MeanSNRdB, out["reactive"].Summary.MeanSNRdB)
	}
	if wb.ActiveElements != 2 {
		t.Fatalf("active elements %d", wb.ActiveElements)
	}
}

func TestOracleIsUpperBound(t *testing.T) {
	o := NewOracle(link.DefaultBudget(), 64)
	rc, err := NewSingleBeamReactive(ula8(), link.DefaultBudget(), nr.Mu3(), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	out, err := sim.Runner{}.Run(staticScenario(0.3), o, rc)
	if err != nil {
		t.Fatal(err)
	}
	if out["oracle"].Summary.MeanSNRdB <= out["reactive"].Summary.MeanSNRdB {
		t.Fatal("oracle not above reactive")
	}
	if out["oracle"].Summary.Reliability != 1 {
		t.Fatalf("oracle reliability %g", out["oracle"].Summary.Reliability)
	}
}

// TestHeadlineComparison reproduces the shape of Fig. 18b/c: under
// concurrent mobility and blockage on the thin-margin outdoor link,
// mmReliable keeps reliability high while the reactive baseline churns and
// the widebeam baseline collapses; the throughput-reliability product
// favors mmReliable by a clear factor.
func TestHeadlineComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run comparison")
	}
	var mmRel, reRel, wbRel, mmTRP, reTRP []float64
	const runs = 6
	budget := sim.OutdoorBudget()
	runner := sim.Runner{Warmup: sim.StandardWarmup}
	for i := 0; i < runs; i++ {
		seed := int64(100 + i)
		mgr, err := manager.New("mmreliable", ula8(), budget, nr.Mu3(), manager.DefaultConfig(), rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		rc, err := NewSingleBeamReactive(ula8(), budget, nr.Mu3(), rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		wb, err := NewWideBeam(ula8(), budget, nr.Mu3(), rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		outM, err := runner.Run(sim.ThinMarginOutdoor(seed), mgr)
		if err != nil {
			t.Fatal(err)
		}
		outR, err := runner.Run(sim.ThinMarginOutdoor(seed), rc)
		if err != nil {
			t.Fatal(err)
		}
		outW, err := runner.Run(sim.ThinMarginOutdoor(seed), wb)
		if err != nil {
			t.Fatal(err)
		}
		mmRel = append(mmRel, outM["mmreliable"].Summary.Reliability)
		reRel = append(reRel, outR["reactive"].Summary.Reliability)
		wbRel = append(wbRel, outW["widebeam"].Summary.Reliability)
		mmTRP = append(mmTRP, outM["mmreliable"].Summary.TRProduct)
		reTRP = append(reTRP, outR["reactive"].Summary.TRProduct)
	}
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if mean(mmRel) < 0.85 {
		t.Fatalf("mmReliable mean reliability %g, want ≈1", mean(mmRel))
	}
	if mean(mmRel) <= mean(reRel)+0.05 {
		t.Fatalf("mmReliable reliability %g not clearly above reactive %g", mean(mmRel), mean(reRel))
	}
	if mean(wbRel) >= mean(reRel) {
		t.Fatalf("widebeam %g should be the worst (reactive %g)", mean(wbRel), mean(reRel))
	}
	if ratio := mean(mmTRP) / mean(reTRP); ratio <= 1.1 {
		t.Fatalf("TR product ratio %g, want > 1.1", ratio)
	}
}

func TestFastTrainingFindsCorrectBeam(t *testing.T) {
	// The reactive baseline's hierarchical training must land on the LOS
	// direction, not merely charge logarithmic time.
	b, err := NewSingleBeamReactive(ula8(), link.DefaultBudget(), nr.Mu3(), rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	if !b.FastTraining {
		t.Fatal("fast training should be the default")
	}
	out, err := sim.Runner{Warmup: 0.05}.Run(staticScenario(0.3), b)
	if err != nil {
		t.Fatal(err)
	}
	// Within ~2 dB of the exhaustive-training variant.
	b2, err := NewSingleBeamReactive(ula8(), link.DefaultBudget(), nr.Mu3(), rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	b2.FastTraining = false
	out2, err := sim.Runner{Warmup: 0.05}.Run(staticScenario(0.3), b2)
	if err != nil {
		t.Fatal(err)
	}
	fast := out["reactive"].Summary.MeanSNRdB
	exh := out2["reactive"].Summary.MeanSNRdB
	if fast < exh-2 {
		t.Fatalf("fast training SNR %g dB vs exhaustive %g dB", fast, exh)
	}
	// And it must be cheaper in training slots.
	if b.TrainingSlots >= b2.TrainingSlots {
		t.Fatalf("fast training slots %d not below exhaustive %d", b.TrainingSlots, b2.TrainingSlots)
	}
}

// TestStepAllocs pins every baseline scheme's steady-state Step
// allocation-free: once the link is established on a static channel, a
// data slot (every slot, for the oracle) runs on the scheme's kept
// buffers.
func TestStepAllocs(t *testing.T) {
	budget := link.DefaultBudget()
	mk := []func() (sim.Scheme, error){
		func() (sim.Scheme, error) {
			return NewSingleBeamReactive(ula8(), budget, nr.Mu3(), rand.New(rand.NewSource(1)))
		},
		func() (sim.Scheme, error) {
			return NewBeamSpy(ula8(), budget, nr.Mu3(), rand.New(rand.NewSource(1)))
		},
		func() (sim.Scheme, error) {
			return NewWideBeam(ula8(), budget, nr.Mu3(), rand.New(rand.NewSource(1)))
		},
		func() (sim.Scheme, error) { return NewOracle(budget, 64), nil },
	}
	for _, newScheme := range mk {
		s, err := newScheme()
		if err != nil {
			t.Fatal(err)
		}
		t.Run(s.Name(), func(t *testing.T) {
			sc := staticScenario(0.2)
			if _, err := (sim.Runner{}).Run(sc, s); err != nil {
				t.Fatal(err)
			}
			m := sc.ChannelAt(sc.Duration)
			tick, slot := sc.Duration, sc.Num.SlotDuration()
			for i := 0; i < 3; i++ {
				tick += slot
				s.Step(tick, m)
			}
			allocs := testing.AllocsPerRun(50, func() {
				tick += slot
				if out := s.Step(tick, m); out.Training {
					t.Fatal("training slot on an established static link")
				}
			})
			if allocs != 0 {
				t.Fatalf("%s Step allocates %.1f per slot, want 0", s.Name(), allocs)
			}
		})
	}
}

// TestScanUEAllocs pins the directional-UE codebook scan: once the UE beam
// exists, a rescan rewrites it in place (the channel model keeps its own
// copy of whatever beam it is bound to).
func TestScanUEAllocs(t *testing.T) {
	b, err := NewSingleBeamReactive(ula8(), link.DefaultBudget(), nr.Mu3(), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	sc := staticScenario(0.2)
	sc.UEArray = ula8()
	if _, err := (sim.Runner{}).Run(sc, b); err != nil {
		t.Fatal(err)
	}
	m := &channel.Model{Reuse: true}
	sc.ChannelInto(sc.Duration, m)
	b.bindUE(m)
	if b.w == nil || b.ueW == nil {
		t.Fatal("no trained TX and UE beam on a static link")
	}
	b.scanUE(m, b.w)
	if allocs := testing.AllocsPerRun(20, func() { b.scanUE(m, b.w) }); allocs != 0 {
		t.Fatalf("UE rescan allocates %.1f per op, want 0", allocs)
	}
}
