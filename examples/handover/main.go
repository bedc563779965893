// Handover (§4.1/§8): two gNBs serve an open area; mid-run, a deep blocker
// takes down every path to the serving cell for 400 ms. The handover
// controller detects that the serving link is beyond local repair, sweeps
// the neighbor, and moves the UE there; a single-cell manager pinned to the
// dying gNB rides the outage to the floor.
//
//	go run ./examples/handover
package main

import (
	"fmt"
	"math"
	"math/rand"

	"mmreliable/internal/antenna"
	"mmreliable/internal/core/handover"
	"mmreliable/internal/core/manager"
	"mmreliable/internal/env"
	"mmreliable/internal/events"
	"mmreliable/internal/motion"
	"mmreliable/internal/nr"
	"mmreliable/internal/sim"
)

// scenarios builds one Scenario per gNB: the same room, UE and array, seen
// from each gNB's pose.
func scenarios() []*sim.Scenario {
	e := env.NewEnvironment(env.Band28GHz(),
		env.Wall{Seg: env.Segment{A: env.Vec2{X: -5, Y: 4}, B: env.Vec2{X: 25, Y: 4}}, Mat: env.Metal},
	)
	e.FrontHalfOnly = false
	ue := motion.Static{Pose: env.Pose{Pos: env.Vec2{X: 8, Y: 0.5}, Facing: 0}}
	tx := antenna.NewULA(8, 28e9)
	var scs []*sim.Scenario
	for _, gnb := range []env.Pose{
		{Pos: env.Vec2{X: 0, Y: 0}, Facing: 0},
		{Pos: env.Vec2{X: 20, Y: 0}, Facing: math.Pi},
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
	// Block every path of gNB 0 for 400 ms.
	for k := 0; k < scs[0].MaxPaths; k++ {
		scs[0].Blockage = append(scs[0].Blockage, events.Event{
			PathIndex: k, Start: 0.3, Duration: 0.4, DepthDB: 45,
			RampTime: events.RampFor(45),
		})
	}
	return scs
}

func main() {
	const seed = 5
	budget := sim.IndoorBudget()
	u := func() *antenna.ULA { return antenna.NewULA(8, 28e9) }

	ctrl, err := handover.New("handover", 2, u(), budget, nr.Mu3(), rand.New(rand.NewSource(seed)))
	if err != nil {
		panic(err)
	}
	pinnedMgr, err := manager.New("pinned", u(), budget, nr.Mu3(),
		manager.DefaultConfig(), rand.New(rand.NewSource(seed)))
	if err != nil {
		panic(err)
	}

	runner := sim.Runner{}
	outH, err := runner.RunMulti(scenarios(), ctrl)
	if err != nil {
		panic(err)
	}
	outP, err := runner.RunMulti(scenarios(), sim.Pinned{Scheme: pinnedMgr, GNB: 0})
	if err != nil {
		panic(err)
	}

	fmt.Println("serving cell dies at t=0.3 s for 400 ms")
	fmt.Printf("with handover : %s  (handovers: %d, now serving gNB %d)\n",
		outH["handover"].Summary, ctrl.Handovers, ctrl.Serving())
	fmt.Printf("pinned to gNB0: %s\n", outP["pinned"].Summary)
}
