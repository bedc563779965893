package experiments

import (
	"math"
	"math/rand"

	"mmreliable/internal/antenna"
	"mmreliable/internal/channel"
	"mmreliable/internal/core/multibeam"
	"mmreliable/internal/env"
	"mmreliable/internal/link"
	"mmreliable/internal/scratch"
	"mmreliable/internal/stats"
)

// Fig19Band60GHz reproduces Appendix B (Fig. 19b): the multi-beam
// throughput gain over a single beam for the same 10 m link with a concrete
// reflector at 60°, at 28 GHz versus 60 GHz, for a static UE with 10%
// blockage time on the LOS. Paper: ≈1.18× gain at both bands (the
// mechanism is band-agnostic), with 28 GHz far ahead in absolute
// throughput because of the 60 GHz path loss and oxygen absorption.
func Fig19Band60GHz(cfg Config) *stats.Table {
	t := stats.NewTable("Fig 19 — multi-beam gain at 28 vs 60 GHz (static UE, 10% blockage)",
		"band", "single_Mbps", "multibeam_Mbps", "gain_x")
	var thr28 float64
	for _, band := range []env.Band{env.Band28GHz(), env.Band60GHz()} {
		single, multi := fig19Throughputs(cfg, band)
		gain := multi / single
		t.AddRow(band.Name, stats.Fmt(single/1e6), stats.Fmt(multi/1e6), stats.Fmt(gain))
		if band.Name == "28GHz" {
			thr28 = multi
		} else if thr28 > 0 {
			t.AddRow("28GHz_vs_60GHz_x", "", "", stats.Fmt(thr28/multi))
		}
	}
	return t
}

func fig19Throughputs(cfg Config, band env.Band) (single, multi float64) {
	// 10 m link; concrete reflector reachable at 60° from the gNB.
	e := env.NewEnvironment(band, env.Wall{
		Seg: env.Segment{A: env.Vec2{X: 1, Y: 4}, B: env.Vec2{X: 9, Y: 4}},
		Mat: env.Concrete,
	})
	gnb := env.Pose{Pos: env.Vec2{X: 0, Y: 0}}
	ue := env.Pose{Pos: env.Vec2{X: 10, Y: 0}, Facing: math.Pi}
	paths := e.Trace(gnb, ue)
	u := antenna.NewULA(8, band.CarrierHz)
	m := channel.New(band, u, paths)
	// Reduced power puts the 10 m link mid-MCS ladder, where the band gap
	// and the combining gain translate into rate (full power saturates
	// CQI 15 at both bands and hides both effects).
	budget := link.DefaultBudget()
	budget.TxPowerDBm -= 4
	offs := channel.SubcarrierOffsets(budget.BandwidthHz, 32)
	snrOf := newSNREval(budget, offs, nil)

	wSingle := u.SingleBeam(paths[0].AoD)
	var beams []multibeam.Beam
	for k := range paths {
		d, s := m.RelativeGain(k, 0)
		beams = append(beams, multibeam.Beam{Angle: paths[k].AoD, Amp: d, Phase: s})
	}
	wMulti, err := multibeam.WeightsInto(u, beams, nil, nil)
	if err != nil {
		panic(err)
	}
	// mmReliable's beam-set selection: fall back to the single beam when
	// wideband ripple makes the multi-beam no better on this channel (it
	// then still wins through the §4.1 blockage response below).
	if snrOf.dB(m, wMulti) < snrOf.dB(m, wSingle) {
		wMulti = wSingle
	}
	// The §4.1 response steady state: all power on the best unblocked path.
	wBlocked := wMulti
	if len(paths) > 1 {
		wBlocked = u.SingleBeam(paths[1].AoD)
	}

	// Average throughput over time with the LOS blocked 10% of the time
	// (depth 25 dB), small-scale fading on. Each time step is one trial on
	// the parallel runner; its fades come from the per-trial derived stream
	// (previously an ad-hoc rand.NewSource(cfg.Seed+191)). The label is
	// shared between the 28 and 60 GHz calls on purpose: both bands replay
	// identical fade realizations, keeping the band comparison controlled.
	steps := cfg.runs(400)
	type rates struct{ s, m float64 }
	res := ParallelTrials(cfg, labelFig19, steps, func(i int, rng *rand.Rand, ws *scratch.Workspace) rates {
		mm := m.Clone()
		for k := range mm.Paths {
			mm.Paths[k].ExtraLossDB += 1.0 * rng.NormFloat64()
		}
		blocked := i%10 == 0 // 10% of the time
		if blocked {
			mm.Paths[0].ExtraLossDB += 25
		}
		// The multi-beam reallocates away from the blocked lobe (the §4.1
		// response); model the steady state of that response.
		wm := wMulti
		if blocked {
			wm = wBlocked
		}
		trialSNR := newSNREval(budget, offs, ws)
		return rates{
			s: link.Throughput(trialSNR.dB(mm, wSingle), budget.BandwidthHz, 0),
			m: link.Throughput(trialSNR.dB(mm, wm), budget.BandwidthHz, 0),
		}
	})
	var thrS, thrM float64
	for _, r := range res {
		thrS += r.s
		thrM += r.m
	}
	return thrS / float64(steps), thrM / float64(steps)
}
