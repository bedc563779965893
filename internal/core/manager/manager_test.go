package manager

import (
	"math"
	"math/rand"
	"testing"

	"mmreliable/internal/antenna"
	"mmreliable/internal/channel"
	"mmreliable/internal/cmx"
	"mmreliable/internal/env"
	"mmreliable/internal/events"
	"mmreliable/internal/link"
	"mmreliable/internal/motion"
	"mmreliable/internal/nr"
	"mmreliable/internal/sim"
)

func newManager(t *testing.T, seed int64) *Manager {
	t.Helper()
	m, err := New("mmreliable", antenna.NewULA(8, 28e9), link.DefaultBudget(), nr.Mu3(), DefaultConfig(), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func staticScenario(dur float64) *sim.Scenario {
	return &sim.Scenario{
		Env:      env.ConferenceRoom(env.Band28GHz()),
		GNB:      env.GNBPose(true),
		UE:       motion.Static{Pose: env.Pose{Pos: env.Vec2{X: 6, Y: 2.6}, Facing: math.Pi}},
		Duration: dur,
		Num:      nr.Mu3(),
		TxArray:  antenna.NewULA(8, 28e9),
		MaxPaths: 3,
	}
}

func TestNewValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBeams = 0
	if _, err := New("x", antenna.NewULA(8, 28e9), link.DefaultBudget(), nr.Mu3(), cfg, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("MaxBeams 0 should fail")
	}
	cfg = DefaultConfig()
	cfg.MaintainPeriod = 0
	if _, err := New("x", antenna.NewULA(8, 28e9), link.DefaultBudget(), nr.Mu3(), cfg, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("zero maintain period should fail")
	}
	cfg = DefaultConfig()
	cfg.NumSC = 48
	if _, err := New("x", antenna.NewULA(8, 28e9), link.DefaultBudget(), nr.Mu3(), cfg, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("non-pow2 subcarriers should fail")
	}
}

func TestEstablishesMultiBeamOnStaticLink(t *testing.T) {
	mgr := newManager(t, 1)
	sc := staticScenario(0.2)
	out, err := sim.Runner{}.Run(sc, mgr)
	if err != nil {
		t.Fatal(err)
	}
	if mgr.NumBeams() < 2 {
		t.Fatalf("established %d beams, want ≥2 in a reflective room", mgr.NumBeams())
	}
	if mgr.ActiveWeights() == nil {
		t.Fatal("no active weights")
	}
	s := out["mmreliable"].Summary
	// Most of the 200 ms is data at healthy SNR; training at the start plus
	// periodic 1-slot maintenance is a small charge.
	if s.Reliability < 0.85 {
		t.Fatalf("static reliability %g", s.Reliability)
	}
	if s.MeanSNRdB < 15 {
		t.Fatalf("mean SNR %g", s.MeanSNRdB)
	}
	if mgr.Retrains != 1 {
		t.Fatalf("retrains %d, want exactly the initial one", mgr.Retrains)
	}
}

// smallSpreadScenario builds a link whose reflection has sub-ns excess
// delay (ripple period ≫ 400 MHz), the regime where constructive combining
// pays off across the whole band (the paper's indoor Fig. 15 setup).
func smallSpreadScenario(dur float64) *sim.Scenario {
	e := env.NewEnvironment(env.Band28GHz(), env.Wall{
		Seg: env.Segment{A: env.Vec2{X: -1, Y: 1.0}, B: env.Vec2{X: 8, Y: 1.0}},
		Mat: env.Metal,
	})
	return &sim.Scenario{
		Env:      e,
		GNB:      env.Pose{Pos: env.Vec2{X: 0, Y: 0}},
		UE:       motion.Static{Pose: env.Pose{Pos: env.Vec2{X: 7, Y: 0}, Facing: math.Pi}},
		Duration: dur,
		Num:      nr.Mu3(),
		TxArray:  antenna.NewULA(8, 28e9),
		MaxPaths: 3,
	}
}

// widebandSNRdB is the default budget's effective wideband SNR of channel m
// under TX beam w.
func widebandSNRdB(m *channel.Model, w cmx.Vector, offs []float64) float64 {
	re, im := make([]float64, len(offs)), make([]float64, len(offs))
	m.EffectiveWidebandSplitInto(w, offs, re, im)
	return link.DefaultBudget().WidebandSNRdBSplit(re, im)
}

func TestMultiBeamBeatsSingleBeamSNR(t *testing.T) {
	// §6.1: with a strong low-excess-delay reflector, the constructive
	// multi-beam's steady-state SNR exceeds the single strongest beam's.
	mgr := newManager(t, 2)
	sc := smallSpreadScenario(0.2)
	if _, err := (sim.Runner{}).Run(sc, mgr); err != nil {
		t.Fatal(err)
	}
	if mgr.NumBeams() < 2 {
		t.Fatalf("selected %d beams; reflector should be worth a lobe", mgr.NumBeams())
	}
	m := sc.ChannelAt(0.2)
	mbSNR := widebandSNRdB(m, mgr.ActiveWeights(), mgr.offsets)
	sbSNR := widebandSNRdB(m, m.Tx.SingleBeam(m.Paths[0].AoD), mgr.offsets)
	if mbSNR <= sbSNR {
		t.Fatalf("multi-beam %g dB not above single beam %g dB", mbSNR, sbSNR)
	}
	if mbSNR-sbSNR > 4 {
		t.Fatalf("implausible gain %g dB", mbSNR-sbSNR)
	}
}

func TestBeamSelectionNeverWorseThanSingle(t *testing.T) {
	// On the large-delay-spread conference-room channel, beam-set selection
	// must keep the manager at least at single-beam level.
	mgr := newManager(t, 12)
	sc := staticScenario(0.2)
	if _, err := (sim.Runner{}).Run(sc, mgr); err != nil {
		t.Fatal(err)
	}
	m := sc.ChannelAt(0.2)
	mbSNR := widebandSNRdB(m, mgr.ActiveWeights(), mgr.offsets)
	sbSNR := widebandSNRdB(m, m.Tx.SingleBeam(m.Paths[0].AoD), mgr.offsets)
	// The manager may sacrifice up to SelectionTolDB for an extra lobe
	// (reliability-first); allow that plus estimation slack.
	if mbSNR < sbSNR-DefaultConfig().SelectionTolDB-0.5 {
		t.Fatalf("manager %g dB fell below single beam %g dB", mbSNR, sbSNR)
	}
}

func TestSurvivesSingleBeamBlockage(t *testing.T) {
	// Fig. 16: blocking one path of the multi-beam must not cause outage.
	mgr := newManager(t, 3)
	sc := staticScenario(1.0)
	sc.Blockage = events.Schedule{{
		PathIndex: 0, Start: 0.4, Duration: 0.3, DepthDB: 26,
		RampTime: events.RampFor(26),
	}}
	out, err := sim.Runner{KeepSeries: true}.Run(sc, mgr)
	if err != nil {
		t.Fatal(err)
	}
	res := out["mmreliable"]
	// Data slots during the blockage window must stay above outage.
	for i, slot := range res.Series {
		tm := res.Times[i]
		if tm > 0.45 && tm < 0.65 && !slot.Training {
			if slot.SNRdB < link.OutageThresholdDB {
				t.Fatalf("outage at t=%.3f despite multi-beam (SNR %.1f)", tm, slot.SNRdB)
			}
		}
	}
	if res.Summary.Reliability < 0.9 {
		t.Fatalf("reliability %g under single-path blockage", res.Summary.Reliability)
	}
	if mgr.BlockageDrops == 0 {
		t.Fatal("blockage never detected/reallocated")
	}
}

func TestTracksMobileUser(t *testing.T) {
	// Fig. 17c: a translating user at 1.5 m/s; with proactive tracking the
	// link holds, without it the beams drift off the user.
	mkScenario := func() *sim.Scenario {
		sc := staticScenario(1.0)
		target := env.GNBPose(true).Pos
		sc.UE = motion.Translation{
			Start:       env.Vec2{X: 6, Y: 2.0},
			Vel:         env.Vec2{X: 0, Y: 1.5},
			TrackTarget: &target,
		}
		return sc
	}
	tracked := newManager(t, 4)
	cfgNo := DefaultConfig()
	cfgNo.ProactiveTracking = false
	noTrack, err := New("notrack", antenna.NewULA(8, 28e9), link.DefaultBudget(), nr.Mu3(), cfgNo, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	outT, err := sim.Runner{}.Run(mkScenario(), tracked)
	if err != nil {
		t.Fatal(err)
	}
	outN, err := sim.Runner{}.Run(mkScenario(), noTrack)
	if err != nil {
		t.Fatal(err)
	}
	rt := outT["mmreliable"].Summary
	rn := outN["notrack"].Summary
	if rt.Reliability < 0.85 {
		t.Fatalf("tracked reliability %g", rt.Reliability)
	}
	if tracked.Refinements == 0 {
		t.Fatal("no refinements under mobility")
	}
	// Indoors the margin keeps both above the outage threshold, so the
	// damage shows in the achieved rate: untracked beams drift off the
	// user and the MCS falls (Fig. 17c's no-tracking collapse).
	if rn.MeanSNRdB >= rt.MeanSNRdB {
		t.Fatalf("no-tracking SNR %g dB not below tracking %g dB", rn.MeanSNRdB, rt.MeanSNRdB)
	}
	if rn.MeanThroughput >= rt.MeanThroughput {
		t.Fatalf("no-tracking throughput %g not below tracking %g", rn.MeanThroughput, rt.MeanThroughput)
	}
}

func TestRetrainsWhenAllPathsBlocked(t *testing.T) {
	mgr := newManager(t, 5)
	sc := staticScenario(0.8)
	sc.Blockage = events.Schedule{{
		AllPaths: true, Start: 0.3, Duration: 0.2, DepthDB: 40,
		RampTime: events.RampFor(40),
	}}
	out, err := sim.Runner{}.Run(sc, mgr)
	if err != nil {
		t.Fatal(err)
	}
	if mgr.Retrains < 2 {
		t.Fatalf("retrains %d, want ≥2 (initial + recovery)", mgr.Retrains)
	}
	// The link must come back after the blockage clears.
	m := sc.ChannelAt(0.8)
	if mgr.ActiveWeights() == nil {
		t.Fatal("never re-established")
	}
	snr := widebandSNRdB(m, mgr.ActiveWeights(), mgr.offsets)
	if snr < link.OutageThresholdDB {
		t.Fatalf("post-recovery SNR %g", snr)
	}
	_ = out
}

func TestMaintenanceOverheadIsSmall(t *testing.T) {
	// §5.2: steady-state maintenance overhead ≲ 2–3% of air time.
	mgr := newManager(t, 6)
	sc := staticScenario(1.0)
	out, err := sim.Runner{}.Run(sc, mgr)
	if err != nil {
		t.Fatal(err)
	}
	totalSlots := out["mmreliable"].Summary
	_ = totalSlots
	nSlots := int(math.Ceil(1.0 / nr.Mu3().SlotDuration()))
	// Subtract the initial establishment (sweep + estimation).
	establishSlots := mgr.slotsFor(float64(mgr.cb.Len())*nr.Mu3().SSBDuration()) +
		(mgr.cfg.MaxBeams + 2*(mgr.cfg.MaxBeams-1) + (mgr.cfg.MaxBeams - 1))
	steady := mgr.TrainingSlots - establishSlots
	frac := float64(steady) / float64(nSlots)
	if frac > 0.04 {
		t.Fatalf("steady-state maintenance overhead %.1f%%", frac*100)
	}
	if steady <= 0 {
		t.Fatal("no maintenance ever ran")
	}
}

func TestConstructiveCombiningAblation(t *testing.T) {
	// Fig. 17c: tracking without CC yields lower SNR than tracking + CC,
	// in the small-spread regime where combining matters.
	run := func(cc bool, seed int64) float64 {
		cfg := DefaultConfig()
		cfg.ConstructiveCombining = cc
		mgr, err := New("m", antenna.NewULA(8, 28e9), link.DefaultBudget(), nr.Mu3(), cfg, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		sc := smallSpreadScenario(0.3)
		out, err := sim.Runner{}.Run(sc, mgr)
		if err != nil {
			t.Fatal(err)
		}
		return out["m"].Summary.MeanSNRdB
	}
	withCC := run(true, 7)
	withoutCC := run(false, 7)
	if withCC <= withoutCC {
		t.Fatalf("CC (%g dB) not above no-CC (%g dB)", withCC, withoutCC)
	}
}

// TestNaturalMotion runs the manager under the paper's "natural motion"
// condition: translation with band-limited hand/cart jitter on position and
// heading. The proactive loop must hold the link.
func TestNaturalMotion(t *testing.T) {
	mgr := newManager(t, 51)
	sc := staticScenario(1.0)
	target := env.GNBPose(true).Pos
	base := motion.Translation{
		Start:       env.Vec2{X: 6, Y: 2.0},
		Vel:         env.Vec2{X: 0, Y: 1.0},
		TrackTarget: &target,
	}
	sc.UE = motion.NewJitter(base, 0.03, 0.02, rand.New(rand.NewSource(51)))
	out, err := sim.Runner{Warmup: sim.StandardWarmup}.Run(sc, mgr)
	if err != nil {
		t.Fatal(err)
	}
	s := out["mmreliable"].Summary
	if s.Reliability < 0.9 {
		t.Fatalf("natural-motion reliability %g", s.Reliability)
	}
	if s.MeanSNRdB < 15 {
		t.Fatalf("natural-motion SNR %g dB", s.MeanSNRdB)
	}
}
