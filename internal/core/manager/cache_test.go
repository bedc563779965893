package manager

import (
	"math"
	"testing"

	"mmreliable/internal/channel"
	"mmreliable/internal/sim"
)

// TestCCUpdatableCache: the cached ccUpdatable agrees with a recomputation
// from the beam state after every event that changes the beam count, the
// active flags or relDelays — establishment, a blockage drop, the recovery
// probe's re-admission, the all-blocked fallback, Reset and a fresh
// establishment after it. The cache is consulted (so filled) before each
// event, so a site that forgets to clear it shows up as a stale count.
func TestCCUpdatableCache(t *testing.T) {
	mgr := newManager(t, 3)
	sc := staticScenario(0.2)
	if _, err := (sim.Runner{}).Run(sc, mgr); err != nil {
		t.Fatal(err)
	}
	if mgr.NumBeams() < 2 {
		t.Fatalf("established %d beams, want ≥2 in a reflective room", mgr.NumBeams())
	}
	seen := map[int]bool{}
	check := func(when string) {
		t.Helper()
		got, want := mgr.ccUpdatable(), mgr.countCCUpdatable()
		if got != want {
			t.Fatalf("after %s: cached ccUpdatable %d, recomputed %d", when, got, want)
		}
		seen[got] = true
	}
	check("establish")

	m := sc.ChannelAt(sc.Duration)
	tick := sc.Duration
	round := func() {
		tick += mgr.cfg.MaintainPeriod
		mgr.maintain(tick, m)
	}
	// block sets the extra loss of the path nearest each given beam angle.
	block := func(db float64, beams ...int) {
		for i := range m.Paths {
			m.Paths[i].ExtraLossDB = 0
		}
		for _, k := range beams {
			m.Paths[nearestPath(m, mgr.angles[k])].ExtraLossDB = db
		}
		m.InvalidateCache()
	}
	round() // settle the tracker anchor on the clean channel
	check("anchor")

	// Blockage drop on beam 1.
	drops := mgr.BlockageDrops
	block(40, 1)
	for i := 0; i < 10 && mgr.BlockageDrops == drops; i++ {
		round()
	}
	if mgr.BlockageDrops == drops {
		t.Fatal("beam 1 blockage never dropped")
	}
	check("blockage drop")

	// Recovery probe re-admits the beam once the path clears.
	block(0)
	for i := 0; i < 10 && !mgr.active[1]; i++ {
		round()
	}
	if !mgr.active[1] {
		t.Fatal("beam 1 never recovered")
	}
	check("recovery")
	round() // re-anchor on the clean channel

	// Every beam blocked: the all-blocked branch re-activates all and
	// retrains.
	all := make([]int, mgr.NumBeams())
	for k := range all {
		all[k] = k
	}
	block(60, all...)
	for i := 0; i < 10 && mgr.RetrainReasons["all-blocked"] == 0; i++ {
		check("blocked round")
		round()
	}
	if mgr.RetrainReasons["all-blocked"] == 0 {
		t.Fatalf("no all-blocked retrain (reasons %v)", mgr.RetrainReasons)
	}
	check("all-blocked")

	mgr.Reset()
	check("Reset")
	block(0)
	tick += mgr.cfg.MaintainPeriod
	mgr.establish(tick, m)
	if mgr.NumBeams() < 2 {
		t.Fatalf("re-established %d beams, want ≥2", mgr.NumBeams())
	}
	check("re-establish")
	if len(seen) < 2 {
		t.Fatalf("ccUpdatable took only the values %v: the events did not exercise the cache", seen)
	}
}

// nearestPath returns the index of the path whose AoD is closest to angle.
func nearestPath(m *channel.Model, angle float64) int {
	best, idx := math.Inf(1), 0
	for i, p := range m.Paths {
		if d := math.Abs(p.AoD - angle); d < best {
			best, idx = d, i
		}
	}
	return idx
}
