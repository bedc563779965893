package experiments

import (
	"math"
	"math/rand"

	"mmreliable/internal/antenna"
	"mmreliable/internal/channel"
	"mmreliable/internal/cmx"
	"mmreliable/internal/core/handover"
	"mmreliable/internal/core/manager"
	"mmreliable/internal/core/multibeam"
	"mmreliable/internal/env"
	"mmreliable/internal/events"
	"mmreliable/internal/hybrid"
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
			truth := widebandSNRdB(budget, m, w, offs)
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
// where they do not disturb the other user. Every arm is scored through the
// hybrid tier's digital MMSE stage (hybrid.Combiner): K = 2 for the spatial
// arms, K = 1 for each TDM link.
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
	sc := newMultiUserScorer(u, []*channel.Model{u1, u2}, budget)

	tdm := sc.tdmRate()
	naive := sc.naiveBeams()
	aware := sc.selectBeams()
	upgraded := sc.withMultibeam(sc.selectBeams(), 1.0)

	t := stats.NewTable("Extension E4 — 2-user hybrid beamforming (sum rate, bits/s/Hz)",
		"scheme", "sum_rate", "user0_sinr_dB", "user1_sinr_dB")
	t.AddRow("tdm", stats.Fmt(tdm), "", "")
	t.AddRow("naive-spatial", stats.Fmt(naive.sumRate), stats.Fmt(naive.sinrDB[0]), stats.Fmt(naive.sinrDB[1]))
	t.AddRow("aware-spatial", stats.Fmt(aware.sumRate), stats.Fmt(aware.sinrDB[0]), stats.Fmt(aware.sinrDB[1]))
	t.AddRow("aware+multibeam", stats.Fmt(upgraded.sumRate), stats.Fmt(upgraded.sinrDB[0]), stats.Fmt(upgraded.sinrDB[1]))
	return t
}

// multiUserScorer scores analog beam assignments for a fixed set of users
// sharing one transmit array. Each chain drives one user's stream; user u
// hears y_u = h_uᵀ w_u s_u + Σ_{r≠u} h_uᵀ w_r s_r + n, so selection picks,
// for every user, the multipath direction whose beam leaks least into the
// others. SINRs come from the digital MMSE stage over the users' wideband
// cross channels.
type multiUserScorer struct {
	ula             *antenna.ULA
	users           []*channel.Model
	offs            []float64
	cb              *hybrid.Combiner
	txLin, noiseLin float64
}

// multiUserAssignment is one spatial-multiplexing configuration: per-user
// steered path, unit-norm weights, per-user SINR and the sum rate
// Σ log2(1+SINR) in bits/s/Hz.
type multiUserAssignment struct {
	pathIdx []int
	weights []cmx.Vector
	sinrDB  []float64
	sumRate float64
}

func newMultiUserScorer(u *antenna.ULA, users []*channel.Model, budget link.Budget) *multiUserScorer {
	const nsc = 64
	txLin, noiseLin := budget.SNRTerms()
	return &multiUserScorer{
		ula:      u,
		users:    users,
		offs:     channel.SubcarrierOffsets(budget.BandwidthHz, nsc),
		cb:       hybrid.NewCombiner(len(users), nsc),
		txLin:    txLin,
		noiseLin: noiseLin,
	}
}

// sinrs returns the SINR (dB) of each of the given users when weights[v]
// serves users[v] in one slot, writing into dst.
func (s *multiUserScorer) sinrs(users []*channel.Model, weights []cmx.Vector, dst []float64) []float64 {
	k := len(users)
	if err := s.cb.Begin(k); err != nil {
		panic(err)
	}
	for a := 0; a < k; a++ {
		for b := 0; b < k; b++ {
			re, im := s.cb.Entry(a, b)
			users[a].EffectiveWidebandSplitInto(weights[b], s.offs, re, im)
		}
	}
	if err := s.cb.Solve(s.txLin, s.noiseLin); err != nil {
		panic(err)
	}
	for a := range dst[:k] {
		dst[a] = s.cb.UserSINRdB(a, s.txLin, s.noiseLin)
	}
	return dst[:k]
}

// score fills a's SINRs and sum rate from its weights.
func (s *multiUserScorer) score(a *multiUserAssignment) {
	a.sinrDB = s.sinrs(s.users, a.weights, make([]float64, len(s.users)))
	a.sumRate = sumRate(a.sinrDB)
}

func sumRate(sinrDB []float64) float64 {
	var r float64
	for _, x := range sinrDB {
		r += math.Log2(1 + math.Pow(10, x/10))
	}
	return r
}

// tdmRate is the time-division baseline: each user served alone (full
// power, strongest single beam) for a 1/U share of the time.
func (s *multiUserScorer) tdmRate() float64 {
	var sum float64
	var sinr [1]float64
	for _, m := range s.users {
		w := s.ula.SingleBeamInto(m.Paths[m.StrongestPath()].AoD, nil)
		s.sinrs([]*channel.Model{m}, []cmx.Vector{w}, sinr[:])
		sum += sumRate(sinr[:]) / float64(len(s.users))
	}
	return sum
}

// naiveBeams steers every user's chain at that user's strongest path —
// the interference-oblivious baseline.
func (s *multiUserScorer) naiveBeams() multiUserAssignment {
	var a multiUserAssignment
	for _, m := range s.users {
		k := m.StrongestPath()
		a.pathIdx = append(a.pathIdx, k)
		a.weights = append(a.weights, s.ula.SingleBeamInto(m.Paths[k].AoD, nil))
	}
	s.score(&a)
	return a
}

// selectBeams exhaustively searches per-user path choices (each chain
// steered as a single beam at one of its user's paths) and returns the
// assignment maximizing the sum rate.
func (s *multiUserScorer) selectBeams() multiUserAssignment {
	n := len(s.users)
	choice := make([]int, n)
	best := multiUserAssignment{sumRate: math.Inf(-1)}
	var rec func(int)
	rec = func(depth int) {
		if depth == n {
			cand := multiUserAssignment{pathIdx: append([]int(nil), choice...)}
			for i, m := range s.users {
				cand.weights = append(cand.weights, s.ula.SingleBeamInto(m.Paths[choice[i]].AoD, nil))
			}
			if s.score(&cand); cand.sumRate > best.sumRate {
				best = cand
			}
			return
		}
		for k := range s.users[depth].Paths {
			choice[depth] = k
			rec(depth + 1)
		}
	}
	rec(0)
	return best
}

// withMultibeam upgrades an assignment: each user's chain is tentatively
// re-synthesized as a constructive multi-beam over more of the user's
// paths, and each extra lobe is kept only if no user's SINR drops by more
// than tolDB — reliability improves (multiple lobes per user) while the
// multi-user interference structure is preserved. This realizes §8's
// "jointly use some spatial beams for enhancing reliability while others
// for improving multi-user coexistence".
func (s *multiUserScorer) withMultibeam(a multiUserAssignment, tolDB float64) multiUserAssignment {
	baseline := append([]float64(nil), a.sinrDB...)
	trial := make([]float64, len(s.users))
	for i, m := range s.users {
		ref := a.pathIdx[i]
		lobes := []multibeam.Beam{{Angle: m.Paths[ref].AoD, Amp: 1}}
		for k := range m.Paths {
			if k == ref {
				continue
			}
			d, sg := m.RelativeGain(k, ref)
			cand := append(append([]multibeam.Beam(nil), lobes...),
				multibeam.Beam{Angle: m.Paths[k].AoD, Amp: d, Phase: sg})
			w, err := multibeam.WeightsInto(s.ula, cand, nil, nil)
			if err != nil {
				continue
			}
			prev := a.weights[i]
			a.weights[i] = w
			s.sinrs(s.users, a.weights, trial)
			ok := true
			for j := range trial {
				if trial[j] < baseline[j]-tolDB {
					ok = false
					break
				}
			}
			if ok {
				lobes = cand
				copy(baseline, trial)
			} else {
				a.weights[i] = prev
			}
		}
	}
	s.score(&a)
	return a
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
