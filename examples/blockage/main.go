// Blockage resilience (the Fig. 16 scenario): a blocker walks across a
// static indoor link, occluding first the reflected beam and then the LOS
// beam. The mmReliable multi-beam dips but never loses the link; the
// single-beam baseline crashes below the outage threshold and has to
// retrain.
//
//	go run ./examples/blockage
package main

import (
	"fmt"
	"math/rand"
	"strings"

	"mmreliable/internal/antenna"
	"mmreliable/internal/baselines"
	"mmreliable/internal/core/manager"
	"mmreliable/internal/link"
	"mmreliable/internal/nr"
	"mmreliable/internal/sim"
)

func main() {
	const seed = 7
	budget := sim.IndoorBudget()
	mgr, err := manager.New("mmreliable", antenna.NewULA(8, 28e9), budget, nr.Mu3(),
		manager.DefaultConfig(), rand.New(rand.NewSource(seed)))
	if err != nil {
		panic(err)
	}
	single, err := baselines.NewSingleBeamReactive(antenna.NewULA(8, 28e9), budget, nr.Mu3(), rand.New(rand.NewSource(seed)))
	if err != nil {
		panic(err)
	}

	runner := sim.Runner{KeepSeries: true, Warmup: sim.StandardWarmup}
	outM, err := runner.Run(sim.WalkingBlockerIndoor(seed), mgr)
	if err != nil {
		panic(err)
	}
	outS, err := runner.Run(sim.WalkingBlockerIndoor(seed), single)
	if err != nil {
		panic(err)
	}
	mm := outM["mmreliable"]
	sb := outS["reactive"]

	fmt.Println("SNR over time (x = one ~12.5 ms bin; '-' marks sub-threshold/outage):")
	fmt.Printf("%-12s %s\n", "multi-beam", sparkline(mm))
	fmt.Printf("%-12s %s\n", "single-beam", sparkline(sb))
	fmt.Println()
	fmt.Printf("multi-beam : %s\n", mm.Summary)
	fmt.Printf("single-beam: %s\n", sb.Summary)
	fmt.Printf("\nblockage events detected by mmReliable: %d (power reallocated, no retrain)\n", mgr.BlockageDrops)
	fmt.Printf("reactive baseline retrains: %d\n", single.Retrains)
}

// sparkline renders a coarse SNR strip: one character per 100 slots.
func sparkline(res sim.Result) string {
	var sb strings.Builder
	const bin = 100
	for i := 0; i+bin <= len(res.Series); i += bin {
		lo := 999.0
		for _, s := range res.Series[i : i+bin] {
			if s.SNRdB < lo {
				lo = s.SNRdB
			}
		}
		switch {
		case lo < link.OutageThresholdDB:
			sb.WriteByte('-')
		case lo < 15:
			sb.WriteByte('o')
		default:
			sb.WriteByte('x')
		}
	}
	return sb.String()
}
