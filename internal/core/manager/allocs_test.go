package manager

import (
	"math/rand"
	"testing"

	"mmreliable/internal/antenna"
	"mmreliable/internal/channel"
	"mmreliable/internal/dsp"
	"mmreliable/internal/link"
	"mmreliable/internal/nr"
	"mmreliable/internal/sim"
)

// TestMaintainTickAllocs pins the tentpole acceptance criterion end to end:
// a steady-state maintenance round — CSI-RS probe, OFDM round trip, CIR,
// frequency-domain super-resolution fit, tracker observation — runs with
// ZERO heap allocations, working entirely out of the manager's persistent
// buffers and its scratch workspace (marked on entry, released on exit).
// TestEstablishAllocs pins the re-establishment path: a full retrain —
// SSB sweep, peak selection, per-beam probing with delay estimation,
// constructive-combining estimation, beam-set selection, weight
// composition — allocates nothing once the manager's establishment stores
// are warm. At metro scale blockage-driven data outages make retrains part
// of the steady state, so this path matters as much as the maintenance
// tick. The directional-UE cases add the per-beam UE codebook scan, the UE
// weight composition and a UE re-alignment round (refineUE); they run on a
// persistent Reuse model, as the slot loops do. One settles on a single UE
// lobe, the other on three, so every composition writes a multi-lobe beam
// into the manager's one UE buffer.
func TestEstablishAllocs(t *testing.T) {
	for _, tc := range []struct {
		name     string
		seed     int64
		ue       *antenna.ULA
		minBeams int
	}{
		{"omni", 7, nil, 2},
		{"directional", 7, antenna.NewULA(8, 28e9), 1},
		{"directional-multilobe", 2, antenna.NewULA(8, 28e9), 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mgr := newManager(t, tc.seed)
			sc := staticScenario(0.2)
			sc.UEArray = tc.ue
			if _, err := (sim.Runner{}).Run(sc, mgr); err != nil {
				t.Fatal(err)
			}
			m := sc.ChannelAt(sc.Duration)
			if tc.ue != nil {
				m = &channel.Model{Reuse: true}
				sc.ChannelInto(sc.Duration, m)
				mgr.bindUE(m)
			}
			if (mgr.ueCB != nil) != (tc.ue != nil) {
				t.Fatalf("directional UE codebook present = %v", mgr.ueCB != nil)
			}
			tick := sc.Duration
			round := func() {
				tick += mgr.cfg.MaintainPeriod
				mgr.establish(tick, m)
				mgr.maintain(tick+mgr.cfg.CCRefreshPeriod, m)
				if tc.ue != nil {
					mgr.refineUE(tick+2*mgr.cfg.CCRefreshPeriod, m, dsp.Rad(2))
				}
			}
			// Warm re-establishments settle every store (and the tracker
			// rebuild path, which only allocates when the beam count
			// changes).
			for i := 0; i < 3; i++ {
				round()
			}
			beams := mgr.NumBeams()
			if beams < tc.minBeams {
				t.Fatalf("established %d beams, want ≥%d", beams, tc.minBeams)
			}
			if tc.ue != nil && len(mgr.ueAngles) != beams {
				t.Fatalf("UE beam has %d lobes for %d gNB beams", len(mgr.ueAngles), beams)
			}
			allocs := testing.AllocsPerRun(20, round)
			if mgr.NumBeams() != beams {
				t.Fatalf("beam count drifted %d → %d on a static channel", beams, mgr.NumBeams())
			}
			if allocs != 0 {
				t.Fatalf("re-establishment allocates %.1f per op, want 0", allocs)
			}
		})
	}
}

func TestMaintainTickAllocs(t *testing.T) {
	mgr := newManager(t, 5)
	sc := staticScenario(0.2)
	// Establish the multi-beam link (initial training plus the first
	// maintenance rounds build the tracker and warm every buffer).
	if _, err := (sim.Runner{}).Run(sc, mgr); err != nil {
		t.Fatal(err)
	}
	if mgr.NumBeams() < 2 {
		t.Fatalf("established %d beams, want ≥2 in a reflective room", mgr.NumBeams())
	}
	m := sc.ChannelAt(sc.Duration)
	// A few warm rounds let any anchor rebuild and arena growth settle.
	tick := sc.Duration
	for i := 0; i < 3; i++ {
		tick += mgr.cfg.MaintainPeriod
		mgr.maintain(tick, m)
	}
	retrains := mgr.Retrains
	allocs := testing.AllocsPerRun(20, func() {
		tick += mgr.cfg.MaintainPeriod
		mgr.maintain(tick, m)
	})
	if mgr.Retrains != retrains {
		t.Fatalf("maintenance triggered %d retrains on a healthy static link", mgr.Retrains-retrains)
	}
	if allocs != 0 {
		t.Fatalf("maintenance tick allocates %.1f per op, want 0", allocs)
	}
}

// BenchmarkManagerMaintainTick measures a steady-state maintenance round
// through the public Step path on an established static indoor link: one
// CSI-RS probe, OFDM round trip, CIR, frequency-domain super-resolution
// fit, and tracker observation per iteration (the allocation floor of the
// inner round is pinned exactly by TestMaintainTickAllocs).
func BenchmarkManagerMaintainTick(b *testing.B) {
	mcfg := DefaultConfig()
	mgr, err := New("m", antenna.NewULA(8, 28e9), link.DefaultBudget(), nr.Mu3(), mcfg, rand.New(rand.NewSource(9)))
	if err != nil {
		b.Fatal(err)
	}
	sc := sim.StaticIndoor(5)
	if _, err := (sim.Runner{}).Run(sc, mgr); err != nil {
		b.Fatal(err)
	}
	m := sc.ChannelAt(sc.Duration)
	t := sc.Duration
	// Warm: settle any anchor rebuild before measuring.
	for i := 0; i < 3; i++ {
		t += mcfg.MaintainPeriod
		mgr.Step(t, m)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t += mcfg.MaintainPeriod
		mgr.Step(t, m)
	}
}
