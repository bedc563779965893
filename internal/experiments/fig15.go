package experiments

import (
	"math"
	"math/cmplx"
	"math/rand"

	"mmreliable/internal/antenna"
	"mmreliable/internal/channel"
	"mmreliable/internal/cmx"
	"mmreliable/internal/core/multibeam"
	"mmreliable/internal/core/probe"
	"mmreliable/internal/dsp"
	"mmreliable/internal/env"
	"mmreliable/internal/link"
	"mmreliable/internal/nr"
	"mmreliable/internal/scratch"
	"mmreliable/internal/stats"
)

// liveProber binds a sounder to a channel for the probe estimator.
type liveProber struct {
	s *nr.Sounder
	m *channel.Model
}

// ProbeInto implements probe.Prober.
func (p *liveProber) ProbeInto(w, dst cmx.Vector) cmx.Vector { return p.s.ProbeInto(p.m, w, dst) }

// fig15Channel is the paper's §6.1 setup: indoor 7 m link, LOS at 0°, NLOS
// at 30°, with a small excess delay so constructive combining holds across
// the band.
func fig15Channel() *channel.Model {
	return channel.FromSpecs(env.Band28GHz(), antenna.NewULA(8, 28e9),
		env.Band28GHz().PathLossDB(7), []channel.PathSpec{
			{AoDDeg: 0, DelayNs: 23.3},
			{AoDDeg: 30, RelAttDB: 4, PhaseRad: 2.5, DelayNs: 24.2},
		})
}

func fig15Prober(cfg Config, offset int64) (*liveProber, link.Budget) {
	b := link.DefaultBudget()
	s, err := nr.NewSounder(nr.Mu3(), b.BandwidthHz, 64, b.NoiseToTxAmpRatio(), nr.DefaultImpairments(), cfg.rng(offset))
	if err != nil {
		panic(err)
	}
	return &liveProber{s: s, m: fig15Channel()}, b
}

// Fig15aPhaseScan reproduces Fig. 15a: the link SNR as the second beam's
// phase is exhaustively scanned, with the two-probe estimate overlaid.
// Paper: ≈27 dB peak, ≈1 dB variation within ±70°, ≈13 dB crash at 180°
// error, estimate ≈2.5 rad.
func Fig15aPhaseScan(cfg Config) *stats.Table {
	pr, budget := fig15Prober(cfg, 151)
	m := pr.m
	u := m.Tx
	delta, sigma := m.RelativeGain(1, 0)
	offs := channel.SubcarrierOffsets(budget.BandwidthHz, 64)

	t := stats.NewTable("Fig 15a — SNR vs second-beam phase", "phase_rad", "snr_dB")
	best, bestPh := math.Inf(-1), 0.0
	for _, ph := range stats.Linspace(0, 2*math.Pi, 25) {
		w, err := multibeam.WeightsInto(u, []multibeam.Beam{
			multibeam.Reference(0),
			{Angle: dsp.Rad(30), Amp: delta, Phase: ph},
		}, nil, nil)
		if err != nil {
			continue
		}
		snr := widebandSNRdB(budget, m, w, offs)
		if snr > best {
			best, bestPh = snr, ph
		}
		t.AddRow(stats.Fmt(ph), stats.Fmt(snr))
	}
	// Two-probe estimate.
	m1 := pr.ProbeInto(u.SingleBeam(0), nil).Abs()
	m2 := pr.ProbeInto(u.SingleBeam(dsp.Rad(30)), nil).Abs()
	est, err := probe.EstimatePairWithDelayWS(pr, u, 0, dsp.Rad(30), m1, m2, 0.9e-9, budget.BandwidthHz, nil)
	if err != nil {
		panic(err)
	}
	t.AddRow("scan_best_phase", stats.Fmt(bestPh), stats.Fmt(best))
	t.AddRow("true_sigma", stats.Fmt(math.Mod(sigma+2*math.Pi, 2*math.Pi)), "")
	t.AddRow("twoprobe_sigma", stats.Fmt(math.Mod(est.Sigma+2*math.Pi, 2*math.Pi)), "")
	return t
}

// Fig15bAmpScan reproduces Fig. 15b: SNR as the second beam's amplitude is
// scanned from −10 to +2 dB, with the two-probe estimate overlaid. Paper:
// broad optimum around −5…−3 dB; estimate ≈ −3.8 dB.
func Fig15bAmpScan(cfg Config) *stats.Table {
	pr, budget := fig15Prober(cfg, 152)
	m := pr.m
	u := m.Tx
	_, sigma := m.RelativeGain(1, 0)
	offs := channel.SubcarrierOffsets(budget.BandwidthHz, 64)

	t := stats.NewTable("Fig 15b — SNR vs second-beam amplitude", "amp_dB", "snr_dB")
	for _, ampDB := range stats.Linspace(-10, 2, 13) {
		w, err := multibeam.WeightsInto(u, []multibeam.Beam{
			multibeam.Reference(0),
			{Angle: dsp.Rad(30), Amp: dsp.AmpFromDB(ampDB), Phase: sigma},
		}, nil, nil)
		if err != nil {
			continue
		}
		t.AddRow(stats.Fmt(ampDB), stats.Fmt(widebandSNRdB(budget, m, w, offs)))
	}
	m1 := pr.ProbeInto(u.SingleBeam(0), nil).Abs()
	m2 := pr.ProbeInto(u.SingleBeam(dsp.Rad(30)), nil).Abs()
	est, err := probe.EstimatePairWithDelayWS(pr, u, 0, dsp.Rad(30), m1, m2, 0.9e-9, budget.BandwidthHz, nil)
	if err != nil {
		panic(err)
	}
	t.AddRow("twoprobe_amp_dB", stats.Fmt(dsp.AmpDB(est.Delta)), "")
	return t
}

// Fig15cPhaseStability reproduces Fig. 15c: the per-subcarrier optimal
// second-beam phase across a 100 MHz band. Paper: variation < 1 rad.
func Fig15cPhaseStability(cfg Config) *stats.Table {
	b := link.DefaultBudget()
	b.BandwidthHz = 100e6
	s, err := nr.NewSounder(nr.Mu3(), b.BandwidthHz, 64, b.NoiseToTxAmpRatio(), nr.DefaultImpairments(), cfg.rng(153))
	if err != nil {
		panic(err)
	}
	pr := &liveProber{s: s, m: fig15Channel()}
	u := pr.m.Tx
	m1 := pr.ProbeInto(u.SingleBeam(0), nil).Abs()
	m2 := pr.ProbeInto(u.SingleBeam(dsp.Rad(30)), nil).Abs()
	// Re-issue the two combined probes and reuse their CSI for the
	// per-subcarrier phase profile.
	w3, _ := combined(u, 0, dsp.Rad(30), 0)
	w4, _ := combined(u, 0, dsp.Rad(30), math.Pi/2)
	csi3 := pr.ProbeInto(w3, nil)
	csi4 := pr.ProbeInto(w4, nil)
	phases := probe.PhaseStability(u, 0, dsp.Rad(30), m1, m2, csi3, csi4)

	t := stats.NewTable("Fig 15c — per-subcarrier optimal phase over 100 MHz", "subcarrier", "phase_rad")
	for k := 0; k < len(phases); k += 4 {
		t.AddRow(stats.Fmt(float64(k)), stats.Fmt(phases[k]))
	}
	t.AddRow("spread_rad", stats.Fmt(stats.Max(phases)-stats.Min(phases)), "")
	return t
}

// widebandSNRdB returns the effective wideband SNR of channel m under TX
// beam w over the subcarrier grid offs.
func widebandSNRdB(budget link.Budget, m *channel.Model, w cmx.Vector, offs []float64) float64 {
	re, im := make([]float64, len(offs)), make([]float64, len(offs))
	m.EffectiveWidebandSplitInto(w, offs, re, im)
	return budget.WidebandSNRdBSplit(re, im)
}

func combined(u *antenna.ULA, phiRef, phiK, psi float64) (cmx.Vector, float64) {
	sum := u.SingleBeam(phiRef).Add(u.SingleBeam(phiK).Scaled(cmplx.Exp(complex(0, psi))))
	n2 := sum.Norm2()
	return sum.Normalize(), n2
}

// Fig15dOracleGap reproduces Fig. 15d: the SNR gain over a single beam of
// the 2-beam and 3-beam constructive multi-beams, the sub-array-split
// multi-beam (Aykin et al.), and the per-antenna-CSI oracle, averaged over
// an ensemble of sparse 3-path channels. Paper: 2-beam ≈1.0 dB, 3-beam
// ≈2.27 dB ≈ 92% of the oracle's ≈2.5 dB.
func Fig15dOracleGap(cfg Config) *stats.Table {
	u := antenna.NewULA(8, 28e9)
	budget := link.DefaultBudget()
	// 4-path channels: the multi-beam uses only the strongest 2–3 paths
	// while the per-antenna-CSI oracle exploits everything, which is what
	// opens the paper's ≈92% gap between 3-beam and oracle.
	params := channel.ClusterParams{
		MinPaths: 4, MaxPaths: 4,
		LOSLossDB:    env.Band28GHz().PathLossDB(7),
		RelAttMeanDB: 5, RelAttStdDB: 1.5,
		MaxExcessDelayNs: 0.8, // sub-resolution spread: the combining regime
		SectorDeg:        100,
		MinSepDeg:        18, // resolvable by the 8-element array
	}
	offs := channel.SubcarrierOffsets(budget.BandwidthHz, 32)
	type trial struct {
		g2, g3, gSplit, gOracle float64
		ok2, ok3, okS, okO      bool
	}
	trials := ParallelTrials(cfg, labelFig15d, cfg.runs(200), func(_ int, rng *rand.Rand, _ *scratch.Workspace) trial {
		m := channel.Cluster(rng, env.Band28GHz(), u, params)
		// Order paths strongest first, as beam training would find them.
		sortPathsByLoss(m)
		single := widebandSNRdB(budget, m, u.SingleBeam(m.Paths[0].AoD), offs)
		mk := func(k int) []multibeam.Beam {
			var beams []multibeam.Beam
			for p := 0; p < k; p++ {
				d, s := m.RelativeGain(p, 0)
				beams = append(beams, multibeam.Beam{Angle: m.Paths[p].AoD, Amp: d, Phase: s})
			}
			return beams
		}
		var tr trial
		if w, err := multibeam.WeightsInto(u, mk(2), nil, nil); err == nil {
			tr.g2, tr.ok2 = widebandSNRdB(budget, m, w, offs)-single, true
		}
		if w, err := multibeam.WeightsInto(u, mk(3), nil, nil); err == nil {
			tr.g3, tr.ok3 = widebandSNRdB(budget, m, w, offs)-single, true
		}
		if w, err := multibeam.SubArraySplit(u, mk(3)); err == nil {
			tr.gSplit, tr.okS = widebandSNRdB(budget, m, w, offs)-single, true
		}
		if w, err := multibeam.Optimal(m.PerAntennaCSI(0)); err == nil {
			tr.gOracle, tr.okO = widebandSNRdB(budget, m, w, offs)-single, true
		}
		return tr
	})
	var g2, g3, gSplit, gOracle []float64
	for _, tr := range trials {
		if tr.ok2 {
			g2 = append(g2, tr.g2)
		}
		if tr.ok3 {
			g3 = append(g3, tr.g3)
		}
		if tr.okS {
			gSplit = append(gSplit, tr.gSplit)
		}
		if tr.okO {
			gOracle = append(gOracle, tr.gOracle)
		}
	}
	t := stats.NewTable("Fig 15d — SNR gain over single beam (dB)",
		"scheme", "mean_gain_dB", "p25", "p75")
	add := func(name string, xs []float64) {
		t.AddRow(name, stats.Fmt(stats.Mean(xs)), stats.Fmt(stats.Percentile(xs, 25)), stats.Fmt(stats.Percentile(xs, 75)))
	}
	add("2-beam", g2)
	add("3-beam", g3)
	add("subarray-split", gSplit)
	add("oracle", gOracle)
	t.AddRow("3beam_vs_oracle_pct", stats.Fmt(100*stats.Mean(g3)/stats.Mean(gOracle)), "", "")
	return t
}

// sortPathsByLoss orders the model's paths strongest first.
func sortPathsByLoss(m *channel.Model) {
	for i := 1; i < len(m.Paths); i++ {
		for j := i; j > 0 && m.Paths[j].LossDB < m.Paths[j-1].LossDB; j-- {
			m.Paths[j], m.Paths[j-1] = m.Paths[j-1], m.Paths[j]
		}
	}
}
