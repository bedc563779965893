package experiments

import (
	"math/rand"
	"sync"

	"mmreliable/internal/antenna"
	"mmreliable/internal/baselines"
	"mmreliable/internal/core/manager"
	"mmreliable/internal/events"
	"mmreliable/internal/link"
	"mmreliable/internal/nr"
	"mmreliable/internal/scratch"
	"mmreliable/internal/sim"
	"mmreliable/internal/stats"
)

// fig18SchemeNames lists the compared schemes in table order.
var fig18SchemeNames = []string{"mmreliable", "beamspy", "reactive", "widebeam"}

// fig18Scheme builds one named scheme from its own RNG stream. Every
// scheme gets a private generator (derived per trial by the runner), so no
// two schemes — and no two concurrent trials — ever share a *rand.Rand.
// ws, when non-nil, is the worker's scratch arena handed to schemes that
// can use one (the manager's super-resolution fits).
func fig18Scheme(name string, budget link.Budget, withTracking bool, rng *rand.Rand, ws *scratch.Workspace) sim.Scheme {
	u := antenna.NewULA(8, 28e9)
	var s sim.Scheme
	var err error
	switch name {
	case "mmreliable":
		mcfg := manager.DefaultConfig()
		mcfg.ProactiveTracking = withTracking
		var mgr *manager.Manager
		mgr, err = manager.New(name, u, budget, nr.Mu3(), mcfg, rng)
		if mgr != nil {
			mgr.UseWorkspace(ws)
		}
		s = mgr
	case "reactive":
		s, err = baselines.NewSingleBeamReactive(u, budget, nr.Mu3(), rng)
	case "beamspy":
		s, err = baselines.NewBeamSpy(u, budget, nr.Mu3(), rng)
	case "widebeam":
		s, err = baselines.NewWideBeam(u, budget, nr.Mu3(), rng)
	default:
		panic("experiments: unknown fig18 scheme " + name)
	}
	if err != nil {
		panic(err)
	}
	return s
}

// Fig18aStaticBlockage reproduces Fig. 18a: throughput of a static indoor
// link with 0, 1, or 2 blockers near the beams, for mmReliable WITHOUT
// proactive tracking (the paper's ablation) versus BeamSpy and the reactive
// baseline. Paper: mmReliable loses ≤ ~4% with two blockers; the
// single-beam baselines degrade heavily.
func Fig18aStaticBlockage(cfg Config) *stats.Table {
	budget := sim.IndoorBudget()
	t := stats.NewTable("Fig 18a — static link with blockers: mean throughput (Mbps)",
		"blockers", "mmreliable", "beamspy", "reactive")
	schemes := []string{"mmreliable", "beamspy", "reactive"}
	blockerCounts := []int{0, 1, 2}
	// One trial per (blocker count, scheme) cell; all 9 cells are
	// independent replays, sharded across the worker pool.
	cells := ParallelTrials(cfg, labelFig18a, len(blockerCounts)*len(schemes),
		func(trial int, rng *rand.Rand, ws *scratch.Workspace) float64 {
			blockers := blockerCounts[trial/len(schemes)]
			name := schemes[trial%len(schemes)]
			sc := sim.StaticIndoor(cfg.Seed)
			var sched events.Schedule
			for b := 0; b < blockers; b++ {
				// Each blocker occludes one beam's path for ~300 ms.
				start := sim.StandardWarmup + 0.15 + 0.35*float64(b)
				sched = append(sched, events.Event{
					PathIndex: b % 2, Start: start, Duration: 0.25,
					DepthDB: 26, RampTime: events.RampFor(26),
				})
			}
			sc.Blockage = sched
			out, err := sim.Runner{Warmup: sim.StandardWarmup}.Run(sc, fig18Scheme(name, budget, false, rng, ws))
			if err != nil {
				panic(err)
			}
			return out[name].Summary.MeanThroughput / 1e6
		})
	for bi, blockers := range blockerCounts {
		row := cells[bi*len(schemes) : (bi+1)*len(schemes)]
		t.AddRow(stats.Fmt(float64(blockers)),
			stats.Fmt(row[0]), stats.Fmt(row[1]), stats.Fmt(row[2]))
	}
	return t
}

var fig18Cache sync.Map

// fig18Ensemble runs the mobile+blockage workload across seeds and
// collects per-run summaries per scheme. Results are memoized per Config so
// Fig. 18b and Fig. 18c share one ensemble.
func fig18Ensemble(cfg Config) map[string][]link.Summary {
	if v, ok := fig18Cache.Load(cfg); ok {
		return v.(map[string][]link.Summary)
	}
	out := fig18EnsembleUncached(cfg)
	fig18Cache.Store(cfg, out)
	return out
}

func fig18EnsembleUncached(cfg Config) map[string][]link.Summary {
	budget := sim.OutdoorBudget()
	runs := cfg.runs(40)
	nSchemes := len(fig18SchemeNames)
	// One trial per run: all four schemes step over the run's scenario in
	// one sim.Run, so they see identical channel realizations (the
	// controlled comparison the figure needs) traced once per slot. Scheme
	// k draws from its own stream (labelFig18Ensemble, run·nSchemes + k),
	// so no two schemes or runs share one.
	perRun := ParallelTrials(cfg, labelFig18Ensemble, runs,
		func(run int, _ *rand.Rand, ws *scratch.Workspace) []link.Summary {
			schemes := make([]sim.Scheme, nSchemes)
			for k, name := range fig18SchemeNames {
				schemes[k] = fig18Scheme(name, budget, true, cfg.trialRNG(labelFig18Ensemble, run*nSchemes+k), ws)
			}
			scenarioSeed := cfg.trialSeed(labelFig18Scenario, run)
			out, err := sim.Runner{Warmup: sim.StandardWarmup}.Run(sim.ThinMarginOutdoor(scenarioSeed), schemes...)
			if err != nil {
				panic(err)
			}
			sums := make([]link.Summary, nSchemes)
			for k, name := range fig18SchemeNames {
				sums[k] = out[name].Summary
			}
			return sums
		})
	out := map[string][]link.Summary{}
	for _, sums := range perRun {
		for k, name := range fig18SchemeNames {
			out[name] = append(out[name], sums[k])
		}
	}
	return out
}

func pluck(ss []link.Summary, f func(link.Summary) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	return out
}

// Fig18bReliability reproduces Fig. 18b: the reliability distribution over
// the mobile+blockage ensemble. Paper medians: mmReliable ≈1.0, reactive
// ≈0.65, widebeam ≈0.5.
func Fig18bReliability(cfg Config) *stats.Table {
	ens := fig18Ensemble(cfg)
	t := stats.NewTable("Fig 18b — reliability over mobile+blockage runs",
		"scheme", "median", "p25", "p75", "mean")
	for _, name := range []string{"mmreliable", "beamspy", "reactive", "widebeam"} {
		rel := pluck(ens[name], func(s link.Summary) float64 { return s.Reliability })
		t.AddRow(name, stats.Fmt(stats.Median(rel)), stats.Fmt(stats.Percentile(rel, 25)),
			stats.Fmt(stats.Percentile(rel, 75)), stats.Fmt(stats.Mean(rel)))
	}
	return t
}

// Fig18cTradeoff reproduces Fig. 18c: the throughput–reliability scatter
// summarized per scheme, plus the headline throughput-reliability-product
// ratio. Paper: ≈2.3× TRP gain and ≈50% throughput gain over the reactive
// baseline.
func Fig18cTradeoff(cfg Config) *stats.Table {
	ens := fig18Ensemble(cfg)
	t := stats.NewTable("Fig 18c — throughput-reliability tradeoff",
		"scheme", "mean_thr_Mbps", "std_thr", "mean_rel", "trp_Mbps")
	trp := map[string]float64{}
	for _, name := range []string{"mmreliable", "beamspy", "reactive", "widebeam"} {
		thr := pluck(ens[name], func(s link.Summary) float64 { return s.MeanThroughput })
		rel := pluck(ens[name], func(s link.Summary) float64 { return s.Reliability })
		tp := pluck(ens[name], func(s link.Summary) float64 { return s.TRProduct })
		trp[name] = stats.Mean(tp)
		t.AddRow(name, stats.Fmt(stats.Mean(thr)/1e6), stats.Fmt(stats.Std(thr)/1e6),
			stats.Fmt(stats.Mean(rel)), stats.Fmt(stats.Mean(tp)/1e6))
	}
	if trp["reactive"] > 0 {
		t.AddRow("trp_ratio_vs_reactive", stats.Fmt(trp["mmreliable"]/trp["reactive"]), "", "", "")
	}
	return t
}

// Fig18dOverhead reproduces Fig. 18d: beam-management signaling time versus
// array size for traditional 5G NR (logarithmic scanning, grows with the
// array) against mmReliable's maintenance rounds (flat: 0.4 ms for 2-beam,
// 0.6 ms for 3-beam).
func Fig18dOverhead(cfg Config) *stats.Table {
	o := nr.OverheadModel{Num: nr.Mu3()}
	t := stats.NewTable("Fig 18d — probing overhead (ms)",
		"antennas", "nr_training", "mmreliable_2beam", "mmreliable_3beam")
	for _, n := range []int{8, 16, 32, 64} {
		t.AddRow(stats.Fmt(float64(n)),
			stats.Fmt(o.NRTrainingTime(n)*1e3),
			stats.Fmt(o.MaintenanceTime(2)*1e3),
			stats.Fmt(o.MaintenanceTime(3)*1e3))
	}
	t.AddRow("probes_2beam", "", stats.Fmt(float64(o.MaintenanceProbes(2))), "")
	t.AddRow("probes_3beam", "", "", stats.Fmt(float64(o.MaintenanceProbes(3))))
	return t
}
