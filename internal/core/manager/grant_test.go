package manager

import (
	"math"
	"testing"

	"mmreliable/internal/sim"
)

// recordingGrant grants or denies by kind and logs every request.
type recordingGrant struct {
	allowMaintain  bool
	allowCC        bool
	allowEmergency bool
	kinds          []ProbeKind
}

func (r *recordingGrant) Grant(_ float64, kind ProbeKind) bool {
	r.kinds = append(r.kinds, kind)
	switch kind {
	case ProbeMaintain:
		return r.allowMaintain
	case ProbeCC:
		return r.allowCC
	default:
		return r.allowEmergency
	}
}

// TestSelfScheduledGrantIsByteIdentical pins the satellite acceptance
// criterion: installing the explicit SelfScheduled grant (or leaving the
// default nil) produces exactly the trajectory the pre-refactor manager
// produced — slot for slot.
func TestSelfScheduledGrantIsByteIdentical(t *testing.T) {
	run := func(install bool) ([]sim.Slot, int) {
		mgr := newManager(t, 5)
		if install {
			mgr.SetProbeGrant(SelfScheduled{})
		}
		sc := staticScenario(0.4)
		out, err := sim.Runner{KeepSeries: true}.Run(sc, mgr)
		if err != nil {
			t.Fatal(err)
		}
		return out["mmreliable"].Series, mgr.ProbesUsed()
	}
	a, ap := run(false)
	b, bp := run(true)
	if ap != bp {
		t.Fatalf("probe counts differ: nil grant %d, SelfScheduled %d", ap, bp)
	}
	if len(a) != len(b) {
		t.Fatalf("series lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("slot %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestDenyingGrantSuppressesSounding verifies the gate actually gates: with
// every maintenance/CC opportunity denied after establishment, the sounder
// issues no further probes, denials are counted, and the due round stays
// pending (nextMaintain does not advance).
func TestDenyingGrantSuppressesSounding(t *testing.T) {
	mgr := newManager(t, 5)
	sc := staticScenario(0.2)
	if _, err := (sim.Runner{}).Run(sc, mgr); err != nil {
		t.Fatal(err)
	}
	if !mgr.Established() {
		t.Fatal("link not established")
	}
	deny := &recordingGrant{}
	mgr.SetProbeGrant(deny)
	probes := mgr.ProbesUsed()
	due := mgr.NextMaintainAt()
	m := sc.ChannelAt(sc.Duration)
	slotDur := sc.Num.SlotDuration()
	tick := sc.Duration
	for i := 0; i < 400; i++ {
		tick += slotDur
		slot := mgr.Step(tick, m)
		if slot.Training {
			t.Fatalf("training slot at %g under a denying grant", tick)
		}
	}
	if got := mgr.ProbesUsed(); got != probes {
		t.Fatalf("sounder issued %d probes under a denying grant", got-probes)
	}
	if mgr.BudgetDenials == 0 {
		t.Fatal("no denials counted")
	}
	if mgr.NextMaintainAt() != due {
		t.Fatalf("denied maintenance advanced nextMaintain %g -> %g", due, mgr.NextMaintainAt())
	}
	sawMaintain := false
	for _, k := range deny.kinds {
		if k == ProbeMaintain {
			sawMaintain = true
		}
	}
	if !sawMaintain {
		t.Fatalf("no maintenance requests recorded (kinds: %v)", deny.kinds)
	}
	// Re-granting lets the pending round fire immediately.
	deny.allowMaintain, deny.allowCC, deny.allowEmergency = true, true, true
	tick += slotDur
	mgr.Step(tick, m)
	if mgr.ProbesUsed() == probes {
		t.Fatal("pending maintenance did not fire once re-granted")
	}
	if mgr.NextMaintainAt() <= due {
		t.Fatal("granted maintenance did not advance the cadence")
	}
}

// TestEmergencyRequestsPreemption drives the link into a blockage outage
// under a grant that denies routine sounding but (like the station
// scheduler) always admits emergencies, and checks the emergency round is
// requested with ProbeEmergency and actually runs.
func TestEmergencyRequestsPreemption(t *testing.T) {
	mgr := newManager(t, 5)
	sc := staticScenario(0.2)
	if _, err := (sim.Runner{}).Run(sc, mgr); err != nil {
		t.Fatal(err)
	}
	gr := &recordingGrant{allowEmergency: true}
	mgr.SetProbeGrant(gr)
	m := sc.ChannelAt(sc.Duration)
	// Occlude every path: SNR collapses, the outage ladder arms.
	for i := range m.Paths {
		m.Paths[i].ExtraLossDB += 60
	}
	m.BumpStamp()
	probes := mgr.ProbesUsed()
	slotDur := sc.Num.SlotDuration()
	tick := sc.Duration
	sawEmergency := false
	for i := 0; i < emergencyConfirmSlots+4; i++ {
		tick += slotDur
		slot := mgr.Step(tick, m)
		if slot.Training {
			continue
		}
		if !math.IsInf(slot.SNRdB, -1) && slot.SNRdB > -20 {
			t.Fatalf("blocked link still healthy (%g dB)", slot.SNRdB)
		}
	}
	for _, k := range gr.kinds {
		if k == ProbeEmergency {
			sawEmergency = true
		}
	}
	if !sawEmergency {
		t.Fatalf("no ProbeEmergency request (kinds: %v)", gr.kinds)
	}
	if mgr.ProbesUsed() == probes {
		t.Fatal("emergency maintenance issued no probes")
	}
}
