package manager

import (
	"testing"

	"mmreliable/internal/antenna"
	"mmreliable/internal/channel"
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
// tick. The directional-UE case adds the per-beam UE codebook scan and the
// UE weight composition; it runs on a persistent Reuse model, as the slot
// loops do, and its single UE lobe re-composes to the same vector.
func TestEstablishAllocs(t *testing.T) {
	for _, tc := range []struct {
		name     string
		seed     int64
		ue       *antenna.ULA
		minBeams int
	}{
		{"omni", 7, nil, 2},
		{"directional", 7, antenna.NewULA(8, 28e9), 1},
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
			// Warm re-establishments settle every store (and the tracker
			// rebuild path, which only allocates when the beam count
			// changes).
			for i := 0; i < 3; i++ {
				tick += mgr.cfg.MaintainPeriod
				mgr.establish(tick, m)
				mgr.maintain(tick+mgr.cfg.CCRefreshPeriod, m)
			}
			beams := mgr.NumBeams()
			if beams < tc.minBeams {
				t.Fatalf("established %d beams, want ≥%d", beams, tc.minBeams)
			}
			allocs := testing.AllocsPerRun(20, func() {
				tick += mgr.cfg.MaintainPeriod
				mgr.establish(tick, m)
				mgr.maintain(tick+mgr.cfg.CCRefreshPeriod, m)
			})
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
