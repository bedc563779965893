// End-to-end comparison (the Fig. 18 scenario): mmReliable versus every
// baseline on the thin-margin outdoor link where mobility and blockage
// co-occur, repeated over several runs — the reliability and
// throughput-reliability-product story of the paper in one program.
//
//	go run ./examples/e2e
package main

import (
	"fmt"
	"math/rand"
	"os"

	"mmreliable/internal/antenna"
	"mmreliable/internal/baselines"
	"mmreliable/internal/core/manager"
	"mmreliable/internal/link"
	"mmreliable/internal/nr"
	"mmreliable/internal/sim"
	"mmreliable/internal/stats"
)

func main() {
	const runs = 5
	budget := sim.OutdoorBudget()
	runner := sim.Runner{Warmup: sim.StandardWarmup}
	u := func() *antenna.ULA { return antenna.NewULA(8, 28e9) }

	acc := map[string][]link.Summary{}
	for i := 0; i < runs; i++ {
		seed := int64(200 + i)
		mgr, err := manager.New("mmreliable", u(), budget, nr.Mu3(), manager.DefaultConfig(), rand.New(rand.NewSource(seed)))
		if err != nil {
			panic(err)
		}
		rc, err := baselines.NewSingleBeamReactive(u(), budget, nr.Mu3(), rand.New(rand.NewSource(seed)))
		if err != nil {
			panic(err)
		}
		wb, err := baselines.NewWideBeam(u(), budget, nr.Mu3(), rand.New(rand.NewSource(seed)))
		if err != nil {
			panic(err)
		}
		for _, s := range []sim.Scheme{mgr, rc, wb} {
			out, err := runner.Run(sim.ThinMarginOutdoor(seed), s)
			if err != nil {
				panic(err)
			}
			acc[s.Name()] = append(acc[s.Name()], out[s.Name()].Summary)
		}
	}

	table := stats.NewTable(fmt.Sprintf("outdoor mobility+blockage, %d runs of 1 s", runs),
		"scheme", "median_rel", "mean_thr_Mbps", "mean_trp_Mbps")
	var mmTRP, reTRP float64
	for _, name := range []string{"mmreliable", "reactive", "widebeam"} {
		rel := make([]float64, 0, runs)
		var thr, trp float64
		for _, s := range acc[name] {
			rel = append(rel, s.Reliability)
			thr += s.MeanThroughput
			trp += s.TRProduct
		}
		thr /= float64(runs)
		trp /= float64(runs)
		if name == "mmreliable" {
			mmTRP = trp
		}
		if name == "reactive" {
			reTRP = trp
		}
		table.AddRow(name, stats.Fmt(stats.Median(rel)), stats.Fmt(thr/1e6), stats.Fmt(trp/1e6))
	}
	table.Render(os.Stdout)
	fmt.Printf("\nthroughput-reliability product: mmReliable / reactive = %.2fx\n", mmTRP/reTRP)
	fmt.Println("(the paper reports 2.3x on its 28 GHz testbed; see EXPERIMENTS.md)")
}
