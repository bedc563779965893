package experiments

import (
	"fmt"

	"mmreliable/internal/nr"
	"mmreliable/internal/sim"
	"mmreliable/internal/station"
	"mmreliable/internal/stats"
)

// ExtensionHybrid is the E8 capacity experiment for the hybrid multi-panel
// SDMA tier (internal/hybrid + the station's slot-sharing planner): it
// sweeps the UE count over a population of static links fanned across a
// ±40° arc (sim.SpreadStaticIndoor) and compares three serving disciplines
// under the same shared-airtime accounting —
//
//   - single-beam: one RF chain, managers pinned to MaxBeams = 1 — the
//     classic analog-beamforming TDMA cell;
//   - multi-beam: one RF chain with the paper's 3-beam managers — per-link
//     robustness, still one UE per slot;
//   - hybrid-SDMA: 4 RF chains with the tuned angular-separation planner
//     and per-slot digital MMSE combining (station.DefaultSDMAConfig) — up
//     to 4 screened UEs share every data slot.
//
// Reported per row: mean reliability and cell sum throughput per arm, the
// group count the planner committed, and the hybrid arm's sum-throughput
// gain over single-beam. The §8 claim under test: once the cell holds
// enough angularly separable UEs (≥8), spatial multiplexing multiplies sum
// throughput without giving up the paper's reliability operating point.
//
// Each arm rebuilds its station fresh over identical per-UE streams
// (trialSeed(labelExtHybrid, i)), so arms and rows are controlled
// comparisons, byte-identical at any Workers value.
func ExtensionHybrid(cfg Config) *stats.Table {
	ues := []int{4, 8, 16}
	duration := 0.5
	if cfg.Quick {
		ues = []int{4, 8}
		duration = 0.4
	}
	arms := []struct {
		name     string
		sdma     station.SDMAConfig
		maxBeams int // 0 = manager default
	}{
		{"single", station.DefaultSDMAConfig(1), 1},
		{"multi", station.DefaultSDMAConfig(1), 0},
		{"sdma", station.DefaultSDMAConfig(4), 0},
	}
	run := func(n int, arm int) station.Results {
		scfg := station.DefaultConfig()
		scfg.Workers = cfg.Workers
		scfg.SDMA = arms[arm].sdma
		if arms[arm].maxBeams > 0 {
			scfg.Manager.MaxBeams = arms[arm].maxBeams
		}
		st, err := station.New(nr.Mu3(), scfg)
		if err != nil {
			panic(err)
		}
		for i := 0; i < n; i++ {
			seed := cfg.trialSeed(labelExtHybrid, i)
			frac := 0.5
			if n > 1 {
				frac = float64(i) / float64(n-1)
			}
			if _, err := st.Attach(station.SessionConfig{
				Scenario: sim.SpreadStaticIndoor(seed, frac),
				Budget:   sim.IndoorBudget(),
				Seed:     seed,
			}); err != nil {
				panic(err)
			}
		}
		return st.Run(duration)
	}
	t := stats.NewTable(
		"Extension E8 — hybrid multi-panel SDMA: sum throughput and reliability vs UE count",
		"ues", "rel_single", "sum_single_mbps", "rel_multi", "sum_multi_mbps",
		"rel_sdma", "sum_sdma_mbps", "sdma_groups", "sdma_gain")
	for _, n := range ues {
		single := run(n, 0)
		multi := run(n, 1)
		sdma := run(n, 2)
		gain := 0.0
		if single.SumThroughputBps > 0 {
			gain = sdma.SumThroughputBps / single.SumThroughputBps
		}
		t.AddRow(fmt.Sprintf("%d", n),
			stats.Fmt(single.MeanReliability), stats.Fmt(single.SumThroughputBps/1e6),
			stats.Fmt(multi.MeanReliability), stats.Fmt(multi.SumThroughputBps/1e6),
			stats.Fmt(sdma.MeanReliability), stats.Fmt(sdma.SumThroughputBps/1e6),
			fmt.Sprintf("%d", sdma.Counters.SDMAGroups), stats.Fmt(gain))
	}
	return t
}
