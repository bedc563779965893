package sim

import (
	"math"
	"testing"

	"mmreliable/internal/antenna"
	"mmreliable/internal/channel"
	"mmreliable/internal/env"
	"mmreliable/internal/events"
	"mmreliable/internal/link"
	"mmreliable/internal/motion"
	"mmreliable/internal/nr"
)

func testScenario() *Scenario {
	e := env.ConferenceRoom(env.Band28GHz())
	gnb := env.GNBPose(true)
	ue := motion.Static{Pose: env.Pose{Pos: env.Vec2{X: 6, Y: 3.5}, Facing: math.Pi}}
	return &Scenario{
		Env:      e,
		GNB:      gnb,
		UE:       ue,
		Duration: 0.05,
		Num:      nr.Mu3(),
		TxArray:  antenna.NewULA(8, 28e9),
		MaxPaths: 3,
	}
}

// fixedScheme always reports the same slot.
type fixedScheme struct {
	name string
	slot Slot
}

func (f fixedScheme) Name() string                      { return f.name }
func (f fixedScheme) Step(float64, *channel.Model) Slot { return f.slot }

// probeScheme records the channels it is handed.
type probeScheme struct {
	models []*channel.Model
	times  []float64
}

func (p *probeScheme) Name() string { return "probe" }
func (p *probeScheme) Step(t float64, m *channel.Model) Slot {
	p.models = append(p.models, m)
	p.times = append(p.times, t)
	return Slot{SNRdB: 20, ThroughputBps: 1e9}
}

func TestValidate(t *testing.T) {
	sc := testScenario()
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *sc
	bad.Duration = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero duration should fail")
	}
	bad2 := *sc
	bad2.UE = nil
	if err := bad2.Validate(); err == nil {
		t.Fatal("nil UE should fail")
	}
	for _, ev := range []events.Event{
		{PathIndex: 0, Start: 0.1, Duration: 0.1, DepthDB: -20},
		{PathIndex: -1, Start: 0.1, Duration: 0.1, DepthDB: 20},
	} {
		bad3 := *sc
		bad3.Blockage = events.Schedule{ev}
		if err := bad3.Validate(); err == nil {
			t.Fatalf("blockage event %+v should fail", ev)
		}
	}
}

func TestRunSlotCountAndMetrics(t *testing.T) {
	sc := testScenario()
	r := Runner{KeepSeries: true}
	out, err := r.Run(sc,
		fixedScheme{"good", Slot{SNRdB: 20, ThroughputBps: 1e9}},
		fixedScheme{"bad", Slot{SNRdB: 0}},
	)
	if err != nil {
		t.Fatal(err)
	}
	wantSlots := int(math.Ceil(0.05 / nr.Mu3().SlotDuration()))
	good := out["good"]
	if len(good.Series) != wantSlots {
		t.Fatalf("slots %d want %d", len(good.Series), wantSlots)
	}
	if good.Summary.Reliability != 1 {
		t.Fatalf("good reliability %g", good.Summary.Reliability)
	}
	if out["bad"].Summary.Reliability != 0 {
		t.Fatalf("bad reliability %g", out["bad"].Summary.Reliability)
	}
	if math.Abs(good.Summary.MeanThroughput-1e9) > 1 {
		t.Fatalf("throughput %g", good.Summary.MeanThroughput)
	}
	// Timestamps increase by one slot.
	if good.Times[1]-good.Times[0] != nr.Mu3().SlotDuration() {
		t.Fatal("slot spacing wrong")
	}
}

func TestRunNoSchemes(t *testing.T) {
	if _, err := (Runner{}).Run(testScenario()); err == nil {
		t.Fatal("no schemes should fail")
	}
}

func TestChannelAtAppliesBlockage(t *testing.T) {
	sc := testScenario()
	m0 := sc.ChannelAt(0)
	if len(m0.Paths) < 2 {
		t.Fatalf("need multipath, got %d", len(m0.Paths))
	}
	sc.Blockage = events.Schedule{{
		PathIndex: 0, Start: 0.01, Duration: 0.02, DepthDB: 25,
		RampTime: events.RampFor(25),
	}}
	during := sc.ChannelAt(0.02)
	if during.Paths[0].ExtraLossDB < 24 {
		t.Fatalf("blockage not applied: %g", during.Paths[0].ExtraLossDB)
	}
	if during.Paths[1].ExtraLossDB != 0 {
		t.Fatalf("wrong path blocked: %g", during.Paths[1].ExtraLossDB)
	}
	after := sc.ChannelAt(0.045)
	if after.Paths[0].ExtraLossDB != 0 {
		t.Fatal("blockage did not clear")
	}
}

func TestPathIdentityStableUnderMotion(t *testing.T) {
	// With a moving UE the path order may change; blockage must follow the
	// same physical path (wall identity), not the sort rank.
	sc := testScenario()
	sc.UE = motion.Translation{
		Start:  env.Vec2{X: 6, Y: 3.5},
		Vel:    env.Vec2{X: 0, Y: 0.8},
		Facing: math.Pi,
	}
	sc.Duration = 1
	// Block initial path rank 1 (the strongest reflection at t=0).
	sc.Blockage = events.Schedule{{
		PathIndex: 1, Start: 0, Duration: 1, DepthDB: 30, RampTime: 1e-4,
	}}
	m0 := sc.ChannelAt(0.001)
	via := m0.Paths[1].Via
	blockedAt0 := -1
	for i, p := range m0.Paths {
		if p.ExtraLossDB > 20 {
			blockedAt0 = i
		}
	}
	if blockedAt0 != 1 {
		t.Fatalf("initial blocked rank %d", blockedAt0)
	}
	// Later, whichever current index has that wall id must carry the loss.
	mt := sc.ChannelAt(0.9)
	for _, p := range mt.Paths {
		if p.Via == via && p.ExtraLossDB < 20 {
			t.Fatal("blockage lost its path under motion")
		}
		if p.Via != via && p.ExtraLossDB > 0 {
			t.Fatalf("blockage leaked to wall %d", p.Via)
		}
	}
}

func TestSchemesSeeClones(t *testing.T) {
	// A scheme mutating its channel snapshot must not affect others.
	sc := testScenario()
	mut := &mutatingScheme{}
	probe := &probeScheme{}
	if _, err := (Runner{}).Run(sc, mut, probe); err != nil {
		t.Fatal(err)
	}
	for _, m := range probe.models {
		for _, p := range m.Paths {
			if p.ExtraLossDB == 999 {
				t.Fatal("mutation leaked across schemes")
			}
		}
	}
}

type mutatingScheme struct{}

func (mutatingScheme) Name() string { return "mutating" }
func (mutatingScheme) Step(t float64, m *channel.Model) Slot {
	for i := range m.Paths {
		m.Paths[i].ExtraLossDB = 999
	}
	return Slot{}
}

func TestMeterIntegration(t *testing.T) {
	// Half the slots in outage → reliability 0.5, TR product = thr·rel.
	sc := testScenario()
	alt := &alternatingScheme{}
	out, err := (Runner{}).Run(sc, alt)
	if err != nil {
		t.Fatal(err)
	}
	s := out["alt"].Summary
	if math.Abs(s.Reliability-0.5) > 0.01 {
		t.Fatalf("reliability %g", s.Reliability)
	}
	if math.Abs(s.TRProduct-s.MeanThroughput*s.Reliability) > 1 {
		t.Fatal("TR product inconsistent")
	}
	_ = link.OutageThresholdDB
}

type alternatingScheme struct{ n int }

func (a *alternatingScheme) Name() string { return "alt" }
func (a *alternatingScheme) Step(t float64, m *channel.Model) Slot {
	a.n++
	if a.n%2 == 0 {
		return Slot{SNRdB: 0}
	}
	return Slot{SNRdB: 20, ThroughputBps: 1e9}
}
