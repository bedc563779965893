package experiments

import (
	"math/rand"

	"mmreliable/internal/antenna"
	"mmreliable/internal/baselines"
	"mmreliable/internal/channel"
	"mmreliable/internal/core/manager"
	"mmreliable/internal/core/multibeam"
	"mmreliable/internal/env"
	"mmreliable/internal/events"
	"mmreliable/internal/link"
	"mmreliable/internal/nr"
	"mmreliable/internal/scratch"
	"mmreliable/internal/sim"
	"mmreliable/internal/stats"
)

// Ablation experiments beyond the paper's figures, exercising the design
// choices DESIGN.md calls out. IDs are prefixed "a". Every Monte-Carlo loop
// here runs on the deterministic parallel trial runner; trials that need
// more than one stream (a scheme RNG plus a scenario seed, say) split their
// per-trial generator with subSeed, so no two trials — and no two schemes
// inside a trial — share a stream.

// subSeed draws a deterministic child seed from a trial's private
// generator. The draw order inside a trial is fixed, so results stay
// byte-identical at any worker count.
func subSeed(rng *rand.Rand) int64 { return rng.Int63() }

// subRNG returns a fresh generator seeded from the trial's stream.
func subRNG(rng *rand.Rand) *rand.Rand { return rand.New(rand.NewSource(subSeed(rng))) }

// AblationQuantization sweeps phase-shifter resolution: how much multi-beam
// SNR does cheap hardware cost? (The paper argues 2-bit + on/off is the
// floor for phase-coherent multi-beams.)
func AblationQuantization(cfg Config) *stats.Table {
	u := antenna.NewULA(8, 28e9)
	budget := link.DefaultBudget()
	offs := channel.SubcarrierOffsets(budget.BandwidthHz, 32)
	params := channel.ClusterParams{
		MinPaths: 2, MaxPaths: 3,
		LOSLossDB:    env.Band28GHz().PathLossDB(7),
		RelAttMeanDB: 5, RelAttStdDB: 1.5,
		MaxExcessDelayNs: 0.8, SectorDeg: 100, MinSepDeg: 18,
	}
	quants := []struct {
		name string
		q    antenna.Quantizer
	}{
		{"ideal", antenna.Quantizer{}},
		{"6bit+0.5dB", antenna.DefaultQuantizer()},
		{"4bit+1dB", antenna.Quantizer{PhaseBits: 4, GainRangeDB: 27, GainStepDB: 1}},
		{"3bit+onoff", antenna.Quantizer{PhaseBits: 3, GainRangeDB: 27, GainStepDB: 0}},
		{"2bit+onoff", antenna.CoarseQuantizer()},
	}
	t := stats.NewTable("Ablation A1 — multi-beam SNR loss vs weight quantization",
		"quantizer", "mean_snr_dB", "loss_vs_ideal_dB")
	runs := cfg.runs(150)
	perTrial := ParallelTrials(cfg, labelAblationA1, runs, func(_ int, rng *rand.Rand, ws *scratch.Workspace) []float64 {
		m := channel.Cluster(rng, env.Band28GHz(), u, params)
		var beams []multibeam.Beam
		for k := range m.Paths {
			d, s := m.RelativeGain(k, 0)
			beams = append(beams, multibeam.Beam{Angle: m.Paths[k].AoD, Amp: d, Phase: s})
		}
		w, err := multibeam.WeightsInto(u, beams, nil, nil)
		if err != nil {
			return nil
		}
		snrOf := newSNREval(budget, offs, ws)
		snrs := make([]float64, len(quants))
		for qi, q := range quants {
			wq := w
			if q.q.PhaseBits > 0 || q.q.GainRangeDB > 0 {
				wq = q.q.Apply(w)
			}
			snrs[qi] = snrOf.dB(m, wq)
		}
		return snrs
	})
	sums := make([]float64, len(quants))
	for _, snrs := range perTrial {
		for qi, v := range snrs {
			sums[qi] += v
		}
	}
	for qi, q := range quants {
		mean := sums[qi] / float64(runs)
		t.AddRow(q.name, stats.Fmt(mean), stats.Fmt(sums[0]/float64(runs)-mean))
	}
	return t
}

// AblationMaintenancePeriod sweeps the CSI-RS maintenance cadence: slower
// maintenance means lower overhead but later blockage/mobility response.
func AblationMaintenancePeriod(cfg Config) *stats.Table {
	t := stats.NewTable("Ablation A2 — maintenance cadence vs reliability (outdoor mobile+blockage)",
		"period_ms", "mean_rel", "mean_thr_Mbps", "retrains_per_s")
	budget := sim.OutdoorBudget()
	runs := cfg.runs(10)
	periods := []float64{5, 10, 20, 40, 80}
	type outcome struct{ rel, thr, retr float64 }
	// One trial is one scenario draw: a manager per cadence steps over the
	// same channel in one run, and every manager is seeded with the same
	// draw, so the cadences see the same probe noise as well — the
	// controlled sweep the ablation needs.
	res := ParallelTrials(cfg, labelAblationA2, runs, func(_ int, rng *rand.Rand, ws *scratch.Workspace) []outcome {
		scenSeed := subSeed(rng)
		mgrSeed := subSeed(rng)
		mgrs := make([]*manager.Manager, len(periods))
		schemes := make([]sim.Scheme, len(periods))
		for i, periodMs := range periods {
			mcfg := manager.DefaultConfig()
			mcfg.MaintainPeriod = periodMs * 1e-3
			mgr, err := manager.New(stats.Fmt(periodMs), antenna.NewULA(8, 28e9), budget, nr.Mu3(), mcfg,
				rand.New(rand.NewSource(mgrSeed)))
			if err != nil {
				panic(err)
			}
			mgr.UseWorkspace(ws)
			mgrs[i], schemes[i] = mgr, mgr
		}
		out, err := sim.Runner{Warmup: sim.StandardWarmup}.Run(sim.ThinMarginOutdoor(scenSeed), schemes...)
		if err != nil {
			panic(err)
		}
		outs := make([]outcome, len(periods))
		for i, mgr := range mgrs {
			s := out[mgr.Name()].Summary
			outs[i] = outcome{rel: s.Reliability, thr: s.MeanThroughput, retr: float64(mgr.Retrains - 1)}
		}
		return outs
	})
	for i, periodMs := range periods {
		var rel, thr, retr float64
		for _, outs := range res {
			rel += outs[i].rel
			thr += outs[i].thr
			retr += outs[i].retr
		}
		n := float64(runs)
		t.AddRow(stats.Fmt(periodMs), stats.Fmt(rel/n), stats.Fmt(thr/n/1e6), stats.Fmt(retr/n))
	}
	return t
}

// AblationCorrelatedBlockage compares independent per-path blockers against
// body blocks that occlude every path at once — the failure mode §3.1
// concedes no multi-beam can survive.
func AblationCorrelatedBlockage(cfg Config) *stats.Table {
	t := stats.NewTable("Ablation A3 — independent vs correlated (all-path) blockage",
		"all_path_prob", "mmreliable_rel", "reactive_rel")
	budget := sim.OutdoorBudget()
	runs := cfg.runs(10)
	type outcome struct{ mm, re float64 }
	for _, prob := range []float64{0, 0.5, 1.0} {
		prob := prob
		res := ParallelTrials(cfg, labelAblationA3, runs, func(_ int, rng *rand.Rand, ws *scratch.Workspace) outcome {
			scenSeed := subSeed(rng)
			genSeed := subSeed(rng)
			mgrRng := subRNG(rng)
			rcRng := subRNG(rng)
			sc := sim.ThinMarginOutdoor(scenSeed)
			gen := events.GenParams{
				Horizon: 1.0, Rate: 1.5,
				MinDuration: 0.1, MaxDuration: 0.5,
				MinDepthDB: 20, MaxDepthDB: 30,
				NumPaths: 1, AllPathProb: prob,
			}
			genRng := rand.New(rand.NewSource(genSeed))
			var sched events.Schedule
			for len(sched) == 0 {
				sched = events.Generate(genRng, gen)
			}
			for j := range sched {
				sched[j].Start += sim.StandardWarmup
			}
			sc.Blockage = sched
			mgr, err := manager.New("m", antenna.NewULA(8, 28e9), budget, nr.Mu3(), manager.DefaultConfig(), mgrRng)
			if err != nil {
				panic(err)
			}
			mgr.UseWorkspace(ws)
			rc, err := baselines.NewSingleBeamReactive(antenna.NewULA(8, 28e9), budget, nr.Mu3(), rcRng)
			if err != nil {
				panic(err)
			}
			// Both schemes step over the one scenario in one run.
			out, err := sim.Runner{Warmup: sim.StandardWarmup}.Run(sc, mgr, rc)
			if err != nil {
				panic(err)
			}
			return outcome{mm: out["m"].Summary.Reliability, re: out["reactive"].Summary.Reliability}
		})
		var mmRel, reRel float64
		for _, o := range res {
			mmRel += o.mm
			reRel += o.re
		}
		n := float64(runs)
		t.AddRow(stats.Fmt(prob), stats.Fmt(mmRel/n), stats.Fmt(reRel/n))
	}
	return t
}

// AblationCCRefresh sweeps the constructive-combining phase refresh cadence
// on the mobile small-spread link: slower refresh leaves stale phases.
func AblationCCRefresh(cfg Config) *stats.Table {
	t := stats.NewTable("Ablation A4 — CC phase-refresh cadence under 1.5 m/s motion",
		"refresh_ms", "mean_snr_dB", "mean_thr_Mbps")
	budget := sim.IndoorBudget()
	budget.TxPowerDBm -= 10
	cadences := []float64{0.5, 1, 2, 5, 20}
	// One independent trial per cadence; every arm reuses the stream
	// cfg.rng(904) and scenario seed the serial version used, so the sweep
	// stays controlled and the table byte-identical.
	rows := ParallelTrials(cfg, labelAblationA4, len(cadences), func(trial int, _ *rand.Rand, ws *scratch.Workspace) link.Summary {
		mcfg := manager.DefaultConfig()
		mcfg.CCRefreshPeriod = cadences[trial] * 1e-3
		mgr, err := manager.New("m", antenna.NewULA(8, 28e9), budget, nr.Mu3(), mcfg, cfg.rng(904))
		if err != nil {
			panic(err)
		}
		mgr.UseWorkspace(ws)
		out, err := sim.Runner{Warmup: sim.StandardWarmup}.Run(sim.SmallSpreadMobile(cfg.Seed), mgr)
		if err != nil {
			panic(err)
		}
		return out["m"].Summary
	})
	for i, s := range rows {
		t.AddRow(stats.Fmt(cadences[i]), stats.Fmt(s.MeanSNRdB), stats.Fmt(s.MeanThroughput/1e6))
	}
	return t
}

// AblationTrainingMethod compares exhaustive SSB-sweep training against
// the hierarchical (logarithmic) search as mmReliable's front end: training
// air time versus established link quality on the indoor multipath link.
func AblationTrainingMethod(cfg Config) *stats.Table {
	t := stats.NewTable("Ablation A5 — exhaustive vs hierarchical beam training",
		"method", "training_slots", "mean_snr_dB", "beams", "reliability")
	budget := sim.IndoorBudget()
	type outcome struct {
		slots, beams int
		summary      link.Summary
	}
	methods := []bool{false, true} // exhaustive, hierarchical
	rows := ParallelTrials(cfg, labelAblationA5, len(methods), func(trial int, _ *rand.Rand, ws *scratch.Workspace) outcome {
		hier := methods[trial]
		name := "exhaustive"
		if hier {
			name = "hierarchical"
		}
		mcfg := manager.DefaultConfig()
		mcfg.HierarchicalTraining = hier
		mgr, err := manager.New(name, antenna.NewULA(8, 28e9), budget, nr.Mu3(), mcfg, cfg.rng(905))
		if err != nil {
			panic(err)
		}
		mgr.UseWorkspace(ws)
		sc := sim.StaticIndoor(cfg.Seed)
		sc.Duration = 0.4
		out, err := sim.Runner{Warmup: 0.05}.Run(sc, mgr)
		if err != nil {
			panic(err)
		}
		return outcome{slots: mgr.TrainingSlots, beams: mgr.NumBeams(), summary: out[name].Summary}
	})
	for i, o := range rows {
		name := "exhaustive"
		if methods[i] {
			name = "hierarchical"
		}
		t.AddRow(name, stats.Fmt(float64(o.slots)), stats.Fmt(o.summary.MeanSNRdB),
			stats.Fmt(float64(o.beams)), stats.Fmt(o.summary.Reliability))
	}
	return t
}
