package experiments

import (
	"math"
	"math/rand"

	"mmreliable/internal/antenna"
	"mmreliable/internal/channel"
	"mmreliable/internal/core/handover"
	"mmreliable/internal/core/hybrid"
	"mmreliable/internal/core/manager"
	"mmreliable/internal/env"
	"mmreliable/internal/events"
	"mmreliable/internal/link"
	"mmreliable/internal/motion"
	"mmreliable/internal/nr"
	"mmreliable/internal/scratch"
	"mmreliable/internal/sim"
	"mmreliable/internal/stats"
)

// Extension experiments for the paper's §8 future-work directions.

// ExtensionIRS demonstrates the §8 vision: an intelligent reflecting
// surface engineered into an environment whose only natural alternate path
// is too weak, restoring multi-beam blockage resilience. Sweeps the surface
// gain.
func ExtensionIRS(cfg Config) *stats.Table {
	budget := sim.OutdoorBudget()
	t := stats.NewTable("Extension E1 — IRS gain vs link reliability under LOS blockage",
		"irs_gain_dB", "reliability", "mean_thr_Mbps", "beams")
	gains := []float64{0, 70, 75, 80}
	type outcome struct {
		summary link.Summary
		beams   int
	}
	// One independent trial per IRS gain. Each arm rebuilds the fading and
	// manager streams from the same cfg labels the serial loop used, so the
	// sweep is controlled and byte-identical at any worker count.
	rows := ParallelTrials(cfg, labelExtIRS, len(gains), func(trial int, _ *rand.Rand, ws *scratch.Workspace) outcome {
		gain := gains[trial]
		// A 40 m link with no natural reflector at all. The IRS sits
		// halfway, 2 m off the line (sub-ns excess delay, so its lobe
		// combines constructively across the band).
		e := env.NewEnvironment(env.Band28GHz())
		if gain > 0 {
			e.IRSs = []env.IRS{{Pos: env.Vec2{X: 20, Y: 2}, GainDB: gain}}
		}
		uePos := env.Vec2{X: 40, Y: 0}
		sc := &sim.Scenario{
			Env: e, GNB: env.Pose{Pos: env.Vec2{X: 0, Y: 0}},
			UE:       motion.Static{Pose: env.Pose{Pos: uePos, Facing: math.Pi}},
			Duration: 1.0, Num: nr.Mu3(),
			TxArray: antenna.NewULA(8, 28e9), MaxPaths: 3,
			Fading: sim.NewFading(sim.DefaultFadingSigmaDB, sim.DefaultFadingCoherence, cfg.rng(951)),
			Blockage: events.Schedule{{
				PathIndex: 0, Start: sim.StandardWarmup + 0.3, Duration: 0.35,
				DepthDB: 25, RampTime: events.RampFor(25),
			}},
		}
		mgr, err := manager.New("m", antenna.NewULA(8, 28e9), budget, nr.Mu3(), manager.DefaultConfig(), cfg.rng(952))
		if err != nil {
			panic(err)
		}
		mgr.UseWorkspace(ws)
		out, err := sim.Runner{Warmup: sim.StandardWarmup}.Run(sc, mgr)
		if err != nil {
			panic(err)
		}
		return outcome{summary: out["m"].Summary, beams: mgr.NumBeams()}
	})
	for i, o := range rows {
		s := o.summary
		t.AddRow(stats.Fmt(gains[i]), stats.Fmt(s.Reliability), stats.Fmt(s.MeanThroughput/1e6),
			stats.Fmt(float64(o.beams)))
	}
	return t
}

// ExtensionRateAdaptation quantifies what measured-CQI link adaptation
// costs versus the genie MCS the rest of the harness (and the paper's
// post-processing) assumes: a fading mmWave link where the OLLA-driven
// adapter picks MCS from probe-based SNR estimates refreshed at different
// cadences.
func ExtensionRateAdaptation(cfg Config) *stats.Table {
	budget := sim.IndoorBudget()
	budget.TxPowerDBm -= 12 // mid-ladder so MCS choice matters
	// A fresh scenario per sweep row: the fading process is stateful in
	// time, and rows must replay the identical realization.
	mkScenario := func() *sim.Scenario {
		sc := sim.StaticIndoor(cfg.Seed)
		// Harsher, faster fading than the default so estimate staleness
		// actually crosses CQI boundaries.
		sc.Fading = sim.NewFading(2.5, 5e-3, cfg.rng(972))
		return sc
	}
	num := nr.Mu3()
	sounder, err := nr.NewSounder(num, budget.BandwidthHz, 64, budget.NoiseToTxAmpRatio(),
		nr.DefaultImpairments(), cfg.rng(971))
	if err != nil {
		panic(err)
	}
	offs := sounderOffsets(budget, 64)

	t := stats.NewTable("Extension E3 — measured-CQI link adaptation vs genie MCS",
		"csi_period_ms", "adaptive_Mbps", "genie_Mbps", "ratio", "bler")
	slots := int(1.0 / num.SlotDuration())
	if cfg.Quick {
		slots /= 4
	}
	for _, periodMs := range []float64{1, 5, 20, 80} {
		adapter := link.NewRateAdapter()
		var genie, adaptive float64
		every := int(periodMs * 1e-3 / num.SlotDuration())
		if every < 1 {
			every = 1
		}
		sc := mkScenario()
		// Fixed single beam on the LOS; the fading process moves the truth.
		m0 := sc.ChannelAt(0)
		w := m0.Tx.SingleBeam(m0.Paths[0].AoD)
		for s := 0; s < slots; s++ {
			tm := float64(s) * num.SlotDuration()
			m := sc.ChannelAt(tm)
			truth := budget.WidebandSNRdB(m.EffectiveWidebandInto(w, offs, nil))
			if s%every == 0 {
				adapter.Observe(budget.WidebandSNRdBFromMags(sounder.Probe(m, w).Abs()))
			}
			genie += link.Throughput(truth, budget.BandwidthHz, 0)
			thr, _ := adapter.Transmit(truth, budget.BandwidthHz)
			adaptive += thr
		}
		ratio := adaptive / genie
		t.AddRow(stats.Fmt(periodMs), stats.Fmt(adaptive/float64(slots)/1e6),
			stats.Fmt(genie/float64(slots)/1e6), stats.Fmt(ratio), stats.Fmt(adapter.BLER()))
	}
	return t
}

func sounderOffsets(b link.Budget, n int) []float64 {
	return channel.SubcarrierOffsets(b.BandwidthHz, n)
}

// ExtensionMultiUser demonstrates §8's hybrid-beamforming sketch: a 2-RF-
// chain gNB serving two users whose strongest paths collide in angle.
// Compared: time-division (each user alone, half the air time), naive
// spatial multiplexing (both chains on strongest paths), interference-aware
// beam selection, and the reliability upgrade that adds extra lobes only
// where they do not disturb the other user.
func ExtensionMultiUser(cfg Config) *stats.Table {
	u := antenna.NewULA(8, 28e9)
	budget := sim.IndoorBudget()
	u1 := channel.FromSpecs(env.Band28GHz(), u, 80, []channel.PathSpec{
		{AoDDeg: 0},
		{AoDDeg: -40, RelAttDB: 3, PhaseRad: 1.0, DelayNs: 0.9},
	})
	u2 := channel.FromSpecs(env.Band28GHz(), u, 80, []channel.PathSpec{
		{AoDDeg: 4}, // collides with user 1's LOS
		{AoDDeg: 45, RelAttDB: 3, PhaseRad: -0.5, DelayNs: 0.8},
	})
	users := []*channel.Model{u1, u2}

	tdm, err := hybrid.TDMRate(u, users, budget)
	if err != nil {
		panic(err)
	}
	naive, err := hybrid.NaiveBeams(u, users, budget)
	if err != nil {
		panic(err)
	}
	aware, err := hybrid.SelectBeams(u, users, budget)
	if err != nil {
		panic(err)
	}
	upgraded, err := hybrid.SelectBeams(u, users, budget)
	if err != nil {
		panic(err)
	}
	if err := upgraded.WithMultibeam(u, users, budget, 1.0); err != nil {
		panic(err)
	}

	t := stats.NewTable("Extension E4 — 2-user hybrid beamforming (sum rate, bits/s/Hz)",
		"scheme", "sum_rate", "user0_sinr_dB", "user1_sinr_dB")
	t.AddRow("tdm", stats.Fmt(tdm), "", "")
	t.AddRow("naive-spatial", stats.Fmt(naive.SumRate), stats.Fmt(naive.SINRdB[0]), stats.Fmt(naive.SINRdB[1]))
	t.AddRow("aware-spatial", stats.Fmt(aware.SumRate), stats.Fmt(aware.SINRdB[0]), stats.Fmt(aware.SINRdB[1]))
	t.AddRow("aware+multibeam", stats.Fmt(upgraded.SumRate), stats.Fmt(upgraded.SINRdB[0]), stats.Fmt(upgraded.SINRdB[1]))
	return t
}

// ExtensionHandover demonstrates the §4.1/§8 escape hatch: with the serving
// cell completely blocked for 400 ms, the handover controller moves the UE
// to a neighbor gNB while the pinned single-cell manager rides the outage.
func ExtensionHandover(cfg Config) *stats.Table {
	e := env.NewEnvironment(env.Band28GHz(),
		env.Wall{Seg: env.Segment{A: env.Vec2{X: -5, Y: 4}, B: env.Vec2{X: 25, Y: 4}}, Mat: env.Metal},
	)
	e.FrontHalfOnly = false
	mk := func() *sim.MultiScenario {
		sc := &sim.MultiScenario{
			Env: e,
			GNBs: []env.Pose{
				{Pos: env.Vec2{X: 0, Y: 0}, Facing: 0},
				{Pos: env.Vec2{X: 20, Y: 0}, Facing: math.Pi},
			},
			UE:       motion.Static{Pose: env.Pose{Pos: env.Vec2{X: 8, Y: 0.5}, Facing: 0}},
			Duration: 1.0, Num: nr.Mu3(),
			TxArray: antenna.NewULA(8, 28e9), MaxPaths: 3,
		}
		for k := 0; k < sc.MaxPaths; k++ {
			sc.Blockage = append(sc.Blockage, events.Event{
				PathIndex: k, Start: 0.3, Duration: 0.4, DepthDB: 45,
				RampTime: events.RampFor(45),
			})
		}
		return sc
	}
	budget := sim.IndoorBudget()
	type outcome struct {
		summary   link.Summary
		handovers int
	}
	// Both schemes previously seeded from the SAME ad-hoc source
	// (cfg.Seed+961), i.e. a shared RNG stream; the runner now hands each
	// trial its own derived stream. The two replays shard across workers.
	rows := ParallelTrials(cfg, labelExtHandover, 2, func(trial int, rng *rand.Rand, ws *scratch.Workspace) outcome {
		runner := sim.Runner{}
		if trial == 0 {
			ctrl, err := handover.New("handover", 2, antenna.NewULA(8, 28e9), budget, nr.Mu3(),
				handover.DefaultConfig(), rng)
			if err != nil {
				panic(err)
			}
			out, err := runner.RunMulti(mk(), ctrl)
			if err != nil {
				panic(err)
			}
			return outcome{summary: out["handover"].Summary, handovers: ctrl.Handovers}
		}
		mgr, err := manager.New("pinned", antenna.NewULA(8, 28e9), budget, nr.Mu3(),
			manager.DefaultConfig(), rng)
		if err != nil {
			panic(err)
		}
		mgr.UseWorkspace(ws)
		out, err := runner.RunMulti(mk(), sim.Pinned{Scheme: mgr, GNB: 0})
		if err != nil {
			panic(err)
		}
		return outcome{summary: out["pinned"].Summary}
	})
	t := stats.NewTable("Extension E2 — handover vs pinned cell under 400 ms serving-cell blackout",
		"scheme", "reliability", "mean_thr_Mbps", "handovers")
	h := rows[0].summary
	p := rows[1].summary
	t.AddRow("handover", stats.Fmt(h.Reliability), stats.Fmt(h.MeanThroughput/1e6),
		stats.Fmt(float64(rows[0].handovers)))
	t.AddRow("pinned", stats.Fmt(p.Reliability), stats.Fmt(p.MeanThroughput/1e6), "0")
	return t
}
