package experiments

import (
	"math"
	"testing"

	"mmreliable/internal/antenna"
	"mmreliable/internal/channel"
	"mmreliable/internal/cmx"
	"mmreliable/internal/env"
	"mmreliable/internal/link"
)

// collidingUsers builds two users whose strongest paths collide in angle
// (both near 0°) but who each own a clean alternate path — the
// configuration where interference-aware selection shines.
func collidingUsers(u *antenna.ULA) []*channel.Model {
	return []*channel.Model{
		channel.FromSpecs(env.Band28GHz(), u, 80, []channel.PathSpec{
			{AoDDeg: 0},
			{AoDDeg: -40, RelAttDB: 3, PhaseRad: 1.0, DelayNs: 5},
		}),
		channel.FromSpecs(env.Band28GHz(), u, 80, []channel.PathSpec{
			{AoDDeg: 4}, // 4° from user 0's LOS: inside the 8-element beam
			{AoDDeg: 45, RelAttDB: 3, PhaseRad: -0.5, DelayNs: 7},
		}),
	}
}

// TestNaiveCollisionIsBad: both chains fire into nearly the same
// direction, so even after the MMSE stage the worst user loses at least
// 10 dB against being served alone on the same beam, and spatial
// multiplexing falls below plain time division.
func TestNaiveCollisionIsBad(t *testing.T) {
	u := antenna.NewULA(8, 28e9)
	users := collidingUsers(u)
	sc := newMultiUserScorer(u, users, link.DefaultBudget())
	naive := sc.naiveBeams()
	worst := 0
	if naive.sinrDB[1] < naive.sinrDB[0] {
		worst = 1
	}
	var alone [1]float64
	sc.sinrs(users[worst:worst+1], []cmx.Vector{naive.weights[worst]}, alone[:])
	if loss := alone[0] - naive.sinrDB[worst]; loss < 10 {
		t.Fatalf("naive worst user %d at %g dB, only %g dB below its interference-free %g dB — expected a collision",
			worst, naive.sinrDB[worst], loss, alone[0])
	}
	if tdm := sc.tdmRate(); naive.sumRate >= tdm {
		t.Fatalf("colliding spatial multiplexing %g b/s/Hz not below TDM %g", naive.sumRate, tdm)
	}
}

// TestSelectBeamsResolvesCollision: the exhaustive search moves at least
// one user off the colliding direction, beats the naive sum rate, and
// leaves both users decodable.
func TestSelectBeamsResolvesCollision(t *testing.T) {
	u := antenna.NewULA(8, 28e9)
	sc := newMultiUserScorer(u, collidingUsers(u), link.DefaultBudget())
	naive, aware := sc.naiveBeams(), sc.selectBeams()
	if aware.sumRate <= naive.sumRate {
		t.Fatalf("aware sum rate %g not above naive %g", aware.sumRate, naive.sumRate)
	}
	if aware.pathIdx[0] == 0 && aware.pathIdx[1] == 0 {
		t.Fatal("selector kept both users on colliding paths")
	}
	for i, s := range aware.sinrDB {
		if s < link.OutageThresholdDB {
			t.Fatalf("user %d SINR %g dB below threshold after selection", i, s)
		}
	}
}

// TestWithMultibeamKeepsInterferenceStructure: the multi-beam upgrade
// leaves no user below the outage threshold and every chain's weights
// unit-norm.
func TestWithMultibeamKeepsInterferenceStructure(t *testing.T) {
	u := antenna.NewULA(8, 28e9)
	sc := newMultiUserScorer(u, collidingUsers(u), link.DefaultBudget())
	before := sc.selectBeams().sinrDB
	up := sc.withMultibeam(sc.selectBeams(), 10)
	for i, s := range up.sinrDB {
		if s < link.OutageThresholdDB {
			t.Fatalf("user %d SINR %g dB after multibeam upgrade (was %g)", i, s, before[i])
		}
	}
	for i, w := range up.weights {
		if math.Abs(w.Norm()-1) > 1e-9 {
			t.Fatalf("user %d weights norm %g", i, w.Norm())
		}
	}
}

// TestSpatialMultiplexingBeatsTDMWhenSeparated: two users at well-separated
// angles — serving both at once (even at half power each) beats giving
// each half the air time.
func TestSpatialMultiplexingBeatsTDMWhenSeparated(t *testing.T) {
	u := antenna.NewULA(8, 28e9)
	sc := newMultiUserScorer(u, []*channel.Model{
		channel.FromSpecs(env.Band28GHz(), u, 80, []channel.PathSpec{{AoDDeg: -30}}),
		channel.FromSpecs(env.Band28GHz(), u, 80, []channel.PathSpec{{AoDDeg: 35}}),
	}, link.DefaultBudget())
	if aware, tdm := sc.selectBeams().sumRate, sc.tdmRate(); aware <= tdm {
		t.Fatalf("spatial multiplexing %g b/s/Hz not above TDM %g", aware, tdm)
	}
}

// TestSingleUserDegeneratesToBeamSelection: with no interferers the
// exhaustive search picks the strongest path, at full-power SNR.
func TestSingleUserDegeneratesToBeamSelection(t *testing.T) {
	u := antenna.NewULA(8, 28e9)
	m := channel.FromSpecs(env.Band28GHz(), u, 80, []channel.PathSpec{
		{AoDDeg: 0},
		{AoDDeg: -40, RelAttDB: 3, PhaseRad: 1.0, DelayNs: 5},
	})
	a := newMultiUserScorer(u, []*channel.Model{m}, link.DefaultBudget()).selectBeams()
	if a.pathIdx[0] != m.StrongestPath() {
		t.Fatalf("single user picked path %d, strongest is %d", a.pathIdx[0], m.StrongestPath())
	}
	if a.sinrDB[0] < 20 {
		t.Fatalf("single-user SINR %g dB", a.sinrDB[0])
	}
}
