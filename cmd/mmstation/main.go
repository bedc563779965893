// Command mmstation runs the concurrent multi-UE gNB serving engine
// (internal/station): N UE sessions — each a full mmReliable beam manager
// against its own scenario replay — share one radio frame and one CSI-RS
// probe budget, arbitrated per frame by the staleness × SNR-drop scheduler.
//
// Usage:
//
//	mmstation -ues 16 -scenario indoor -duration 1
//	mmstation -ues 32 -budget 8 -churn -workers 8
//	mmstation -ues 8 -scenario walking-blocker -budget 2 -seed 7
//	mmstation -ues 8 -scenario spread -sdma-chains 4
//
// Scenarios: the sim.Named set (indoor, indoor-mobile, outdoor,
// walking-blocker, small-spread, rotating-ue) plus "mixed" (alternating
// static-indoor / walking-blocker — the CI determinism workload) and
// "spread" (static UEs fanned across a ±40° arc — the SDMA workload).
//
// Every session replays its own deterministic scenario instance (seeded via
// seeds.Mix(seed, 981, id)), all lifecycle and scheduling decisions happen
// single-threaded at frame boundaries, and the output carries no wall-clock
// or host-dependent fields — so stdout is byte-identical for any -workers
// value. CI diffs -workers 1 against -workers 8 on a 32-UE churn run.
//
// The UEs share the cell's airtime. -sdma-chains N sets the RF-chain
// count of the hybrid SDMA tier (internal/hybrid): with the
// default 1 the cell serves one UE per slot (round-robin TDMA); with N ≥ 2
// slots are shared across interference-screened session groups of up to N
// UEs. The "sdma:" summary line reports the planner's outcome.
package main

import (
	"flag"
	"fmt"
	"os"

	"mmreliable/internal/core"
	"mmreliable/internal/link"
	"mmreliable/internal/nr"
	"mmreliable/internal/seeds"
	"mmreliable/internal/sim"
	"mmreliable/internal/station"
	"mmreliable/internal/stats"
)

func main() {
	def := station.DefaultConfig()
	ues := flag.Int("ues", 8, "number of UE sessions to attach")
	scenario := flag.String("scenario", "mixed", "mixed | spread | indoor | indoor-mobile | outdoor | walking-blocker | small-spread | rotating-ue")
	budget := flag.Int("budget", def.ProbeBudget, "probe grants per frame across all sessions (0 = unlimited, every session self-schedules)")
	frameMS := flag.Float64("frame-ms", def.FramePeriod*1e3, "scheduling frame period in milliseconds")
	duration := flag.Float64("duration", 0.5, "simulated duration in seconds (warmup included)")
	seed := flag.Int64("seed", 1, "base seed; per-session streams are derived via seeds.Mix")
	workers := flag.Int("workers", 0, "worker goroutines stepping sessions (0 = GOMAXPROCS); output is identical for any value")
	maxSessions := flag.Int("max-sessions", def.MaxSessions, "admission-control cap on concurrently attached sessions")
	churn := flag.Bool("churn", false, "mid-run churn: every 4th UE attaches at 0.3×duration, every 5th detaches at 0.7×duration")
	perUE := flag.Bool("per-ue", false, "print the per-UE result table")
	sdmaChains := flag.Int("sdma-chains", def.SDMA.Chains, "hybrid RF chains: max UEs per shared slot (1 = single-beam TDMA)")
	sdmaSep := flag.Float64("sdma-sep", def.SDMA.MinSeparationDeg, "minimum tracked-AoD separation in degrees between co-scheduled UEs")
	sdmaMinSINR := flag.Float64("sdma-min-sinr", def.SDMA.MinSINRdB, "minimum predicted SINR in dB for every member of a candidate group")
	showVersion := flag.Bool("version", false, "print version/build info and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(core.Version("mmstation"))
		return
	}
	if err := core.CheckFlags("mmstation",
		core.IntAtLeast("ues", *ues, 1),
		core.IntAtLeast("budget", *budget, 0),
		core.FloatPositive("frame-ms", *frameMS),
		core.FloatPositive("duration", *duration),
		core.IntAtLeast("workers", *workers, 0),
		core.IntAtLeast("max-sessions", *maxSessions, 0),
		core.IntAtLeast("sdma-chains", *sdmaChains, 1),
		core.FloatAtLeast("sdma-sep", *sdmaSep, 0),
	); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	cfg := def
	cfg.ProbeBudget = *budget
	cfg.FramePeriod = *frameMS * 1e-3
	cfg.MaxSessions = *maxSessions
	cfg.Workers = *workers
	cfg.SDMA = station.SDMAConfig{
		Chains:           *sdmaChains,
		MinSeparationDeg: *sdmaSep,
		MinSINRdB:        *sdmaMinSINR,
	}
	st, err := station.New(nr.Mu3(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for i := 0; i < *ues; i++ {
		sseed := seeds.Mix(*seed, 981, int64(i))
		sc, bud, err := mkScenario(*scenario, i, *ues, sseed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		scfg := station.SessionConfig{Scenario: sc, Budget: bud, Seed: sseed}
		if *churn {
			if i%4 == 3 {
				scfg.AttachAt = 0.3 * *duration
			}
			if i%5 == 4 {
				scfg.DetachAt = 0.7 * *duration
			}
		}
		if _, err := st.Attach(scfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	res := st.Run(*duration)
	c := res.Counters
	w := os.Stdout
	fmt.Fprintf(w, "station: %d UEs, scenario %s, %.1f s, budget %d grants/frame, frame %.1f ms (seed %d)\n",
		*ues, *scenario, *duration, *budget, *frameMS, *seed)
	fmt.Fprintf(w, "frames %d  session-slots %d  admitted %d  rejected %d  detached %d\n",
		c.Frames, c.SessionSlots, c.AttachesAdmitted, c.AttachesRejected, c.Detaches)
	fmt.Fprintf(w, "probes %d  grants %d  denials %d  preemptions %d  realigns %d  retrains %d  training-slots %d\n",
		c.ProbesIssued, c.Grants, c.BudgetDenials, c.Preemptions, c.Realigns, c.Retrains, c.TrainingSlots)
	overheadPct := 0.0
	if c.SessionSlots > 0 {
		overheadPct = 100 * float64(c.TrainingSlots) / float64(c.SessionSlots)
	}
	fmt.Fprintf(w, "mean reliability %s  median SNR %s dB  training overhead %s%%  min/max grant ratio %s\n",
		stats.Fmt(res.MeanReliability), stats.Fmt(res.MedianSNRdB),
		stats.Fmt(overheadPct), stats.Fmt(res.MinMaxGrantRatio))
	fmt.Fprintf(w, "sdma: chains %d  groups %d  pair-rejects %d  combined-slots %d  sum-throughput %s Mbps\n",
		*sdmaChains, c.SDMAGroups, c.SDMAPairRejects, c.SDMASlots, stats.Fmt(res.SumThroughputBps/1e6))
	if *perUE {
		table := stats.NewTable("per-UE results",
			"ue", "state", "slots", "reliability", "snr_dB", "thr_Mbps", "grants", "denials", "preempt", "retrain")
		for _, ur := range res.PerUE {
			s := ur.Summary
			table.AddRow(fmt.Sprintf("%03d", ur.ID), ur.State, fmt.Sprintf("%d", ur.Slots),
				stats.Fmt(s.Reliability), stats.Fmt(s.MeanSNRdB), stats.Fmt(s.MeanThroughput/1e6),
				fmt.Sprintf("%d", ur.Grants), fmt.Sprintf("%d", ur.BudgetDenials),
				fmt.Sprintf("%d", ur.Preemptions), fmt.Sprintf("%d", ur.Retrains))
		}
		table.Render(w)
	}
}

// mkScenario builds session id's world. "mixed" alternates static-indoor /
// walking-blocker (the CI determinism workload); "spread" fans the ues
// sessions across a ±40° arc of distinct AoDs (the SDMA workload);
// everything else is the sim.Named set.
func mkScenario(name string, id, ues int, sseed int64) (*sim.Scenario, link.Budget, error) {
	switch name {
	case "mixed":
		if id%2 == 0 {
			return sim.StaticIndoor(sseed), sim.IndoorBudget(), nil
		}
		return sim.WalkingBlockerIndoor(sseed), sim.IndoorBudget(), nil
	case "spread":
		frac := 0.5
		if ues > 1 {
			frac = float64(id) / float64(ues-1)
		}
		return sim.SpreadStaticIndoor(sseed, frac), sim.IndoorBudget(), nil
	default:
		return sim.Named(name, sseed)
	}
}
