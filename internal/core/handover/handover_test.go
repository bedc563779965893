package handover

import (
	"math"
	"math/rand"
	"testing"

	"mmreliable/internal/antenna"
	"mmreliable/internal/core/manager"
	"mmreliable/internal/env"
	"mmreliable/internal/events"
	"mmreliable/internal/link"
	"mmreliable/internal/motion"
	"mmreliable/internal/nr"
	"mmreliable/internal/sim"
)

// twoGNBScenario builds an open area with two gNBs on opposite sides of the
// UE, plus a reflector near each so both cells support multi-beams: one
// Scenario per gNB over the same room, UE and array.
func twoGNBScenario(blockA bool) []*sim.Scenario {
	e := env.NewEnvironment(env.Band28GHz(),
		env.Wall{Seg: env.Segment{A: env.Vec2{X: -5, Y: 4}, B: env.Vec2{X: 25, Y: 4}}, Mat: env.Metal},
	)
	e.FrontHalfOnly = false // gNBs face opposite directions; keep it simple
	ue := motion.Static{Pose: env.Pose{Pos: env.Vec2{X: 8, Y: 0.5}, Facing: 0}}
	tx := antenna.NewULA(8, 28e9)
	var scs []*sim.Scenario
	for _, gnb := range []env.Pose{
		{Pos: env.Vec2{X: 0, Y: 0}, Facing: 0},        // gNB A, west
		{Pos: env.Vec2{X: 20, Y: 0}, Facing: math.Pi}, // gNB B, east
	} {
		scs = append(scs, &sim.Scenario{
			Env:      e,
			GNB:      gnb,
			UE:       ue,
			Duration: 1.0,
			Num:      nr.Mu3(),
			TxArray:  tx,
			MaxPaths: 3,
		})
	}
	if blockA {
		// Everything from gNB A dies for 400 ms mid-run.
		for k := 0; k < scs[0].MaxPaths; k++ {
			scs[0].Blockage = append(scs[0].Blockage, events.Event{
				PathIndex: k, Start: 0.3, Duration: 0.4, DepthDB: 45,
				RampTime: events.RampFor(45),
			})
		}
	}
	return scs
}

func newController(t *testing.T, n int, seed int64) *Controller {
	t.Helper()
	c, err := New("ho", n, antenna.NewULA(8, 28e9), link.DefaultBudget(), nr.Mu3(), rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := New("x", 0, antenna.NewULA(8, 28e9), link.DefaultBudget(), nr.Mu3(), rng); err == nil {
		t.Fatal("0 gNBs should fail")
	}
}

func TestNoHandoverOnHealthyLink(t *testing.T) {
	c := newController(t, 2, 2)
	out, err := (sim.Runner{}).RunMulti(twoGNBScenario(false), c)
	if err != nil {
		t.Fatal(err)
	}
	if c.Handovers != 0 {
		t.Fatalf("spurious handovers: %d", c.Handovers)
	}
	if c.Serving() != 0 {
		t.Fatalf("serving moved to %d", c.Serving())
	}
	if out["ho"].Summary.Reliability < 0.9 {
		t.Fatalf("healthy reliability %g", out["ho"].Summary.Reliability)
	}
}

func TestHandoverOnServingCellDeath(t *testing.T) {
	c := newController(t, 2, 3)
	out, err := (sim.Runner{}).RunMulti(twoGNBScenario(true), c)
	if err != nil {
		t.Fatal(err)
	}
	if c.Handovers == 0 {
		t.Fatal("no handover despite serving-cell death")
	}
	if c.Serving() != 1 {
		t.Fatalf("serving = %d, want gNB B", c.Serving())
	}
	ho := out["ho"].Summary

	// Baseline: the same manager pinned to gNB A rides the outage down.
	mgr, err := manager.New("pinned", antenna.NewULA(8, 28e9), link.DefaultBudget(), nr.Mu3(), manager.DefaultConfig(), rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	outP, err := (sim.Runner{}).RunMulti(twoGNBScenario(true), sim.Pinned{Scheme: mgr, GNB: 0})
	if err != nil {
		t.Fatal(err)
	}
	pinned := outP["pinned"].Summary
	if ho.Reliability <= pinned.Reliability {
		t.Fatalf("handover reliability %g not above pinned %g", ho.Reliability, pinned.Reliability)
	}
	// The 400 ms total blackout bounds the pinned reliability near 0.6.
	if pinned.Reliability > 0.75 {
		t.Fatalf("pinned baseline suspiciously healthy: %g", pinned.Reliability)
	}
}

func TestEvaluationHysteresis(t *testing.T) {
	// With a single gNB there is never anything to evaluate.
	c := newController(t, 1, 4)
	scs := twoGNBScenario(true)[:1]
	if _, err := (sim.Runner{}).RunMulti(scs, c); err != nil {
		t.Fatal(err)
	}
	if c.Evaluations != 0 || c.Handovers != 0 {
		t.Fatalf("single-gNB controller evaluated/handed over: %d/%d", c.Evaluations, c.Handovers)
	}
}

func TestPinnedAdapter(t *testing.T) {
	mgr, err := manager.New("m", antenna.NewULA(8, 28e9), link.DefaultBudget(), nr.Mu3(), manager.DefaultConfig(), rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	p := sim.Pinned{Scheme: mgr, GNB: 1}
	if got := p.Name(); got != "m" {
		t.Fatalf("name %q", got)
	}
	out, err := (sim.Runner{}).RunMulti(twoGNBScenario(false), p)
	if err != nil {
		t.Fatal(err)
	}
	if out["m"].Summary.MeanSNRdB < 10 {
		t.Fatalf("pinned-to-B SNR %g", out["m"].Summary.MeanSNRdB)
	}
}

// TestMultiScenarioValidation: a multi-gNB world is a slice of per-gNB
// scenarios on one slot grid. RunMulti refuses an empty world, gNBs on
// different slot grids and an empty scheme list; an uncapped path count
// (MaxPaths = 0) is fine, since each gNB's blockage schedule addresses its
// own paths.
func TestMultiScenarioValidation(t *testing.T) {
	if _, err := (sim.Runner{}).RunMulti(nil, newController(t, 2, 6)); err == nil {
		t.Fatal("no gNBs should fail")
	}
	scs := twoGNBScenario(false)
	scs[1].Duration = 0.5
	if _, err := (sim.Runner{}).RunMulti(scs, newController(t, 2, 7)); err == nil {
		t.Fatal("gNBs on different slot grids should fail")
	}
	if _, err := (sim.Runner{}).RunMulti(twoGNBScenario(false)); err == nil {
		t.Fatal("no schemes should fail")
	}
	scs = twoGNBScenario(true)
	for _, sc := range scs {
		sc.MaxPaths = 0
		sc.Duration = 0.05
	}
	if _, err := (sim.Runner{}).RunMulti(scs, newController(t, 2, 6)); err != nil {
		t.Fatalf("uncapped path count refused: %v", err)
	}
}

// TestEmptyScheduleKeepsServingCell: an explicitly empty (non-nil)
// blockage schedule is a healthy link — the controller must never start an
// evaluation, let alone hand over.
func TestEmptyScheduleKeepsServingCell(t *testing.T) {
	c := newController(t, 2, 8)
	scs := twoGNBScenario(false)
	for _, sc := range scs {
		sc.Blockage = events.Schedule{}
		sc.Duration = 0.4
	}
	out, err := (sim.Runner{}).RunMulti(scs, c)
	if err != nil {
		t.Fatal(err)
	}
	if c.Evaluations != 0 || c.Handovers != 0 {
		t.Fatalf("empty schedule triggered %d evaluations / %d handovers", c.Evaluations, c.Handovers)
	}
	if out["ho"].Summary.Reliability < 0.9 {
		t.Fatalf("healthy reliability %g", out["ho"].Summary.Reliability)
	}
}

// TestOverlappingBlockageTriggersHandover: each of gNB A's paths carries
// two OVERLAPPING events of partial depth. Either event alone leaves the
// link above the outage threshold; only the summed overlap window kills
// the cell — the handover must fire off the combined loss.
func TestOverlappingBlockageTriggersHandover(t *testing.T) {
	scs := twoGNBScenario(false)
	for k := 0; k < scs[0].MaxPaths; k++ {
		scs[0].Blockage = append(scs[0].Blockage,
			events.Event{PathIndex: k, Start: 0.25, Duration: 0.35, DepthDB: 14,
				RampTime: events.RampFor(14)},
			events.Event{PathIndex: k, Start: 0.35, Duration: 0.45, DepthDB: 31,
				RampTime: events.RampFor(31)},
		)
	}
	c := newController(t, 2, 9)
	if _, err := (sim.Runner{}).RunMulti(scs, c); err != nil {
		t.Fatal(err)
	}
	if c.Handovers == 0 {
		t.Fatal("no handover despite overlapping blockage killing the serving cell")
	}
	if c.Serving() != 1 {
		t.Fatalf("serving = %d, want gNB B", c.Serving())
	}
}

// TestBlockageIndexPastConcatenatedPaths: a path index at or beyond a
// gNB's MaxPaths addresses nothing in that gNB's path list — the event must
// be dropped silently, not wrap around onto some path or some other cell.
func TestBlockageIndexPastConcatenatedPaths(t *testing.T) {
	scs := twoGNBScenario(false)
	for _, sc := range scs {
		sc.Duration = 0.4
	}
	for _, idx := range []int{scs[0].MaxPaths, scs[0].MaxPaths + 5, 1000} {
		scs[0].Blockage = append(scs[0].Blockage, events.Event{
			PathIndex: idx, Start: 0.1, Duration: 0.25, DepthDB: 50,
			RampTime: events.RampFor(50),
		})
	}
	c := newController(t, 2, 10)
	out, err := (sim.Runner{}).RunMulti(scs, c)
	if err != nil {
		t.Fatal(err)
	}
	if c.Evaluations != 0 || c.Handovers != 0 {
		t.Fatalf("out-of-range blockage indices triggered %d evaluations / %d handovers",
			c.Evaluations, c.Handovers)
	}
	if out["ho"].Summary.Reliability < 0.9 {
		t.Fatalf("out-of-range events degraded the link: reliability %g", out["ho"].Summary.Reliability)
	}
}
