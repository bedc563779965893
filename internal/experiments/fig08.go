package experiments

import (
	"math/cmplx"

	"mmreliable/internal/antenna"
	"mmreliable/internal/channel"
	"mmreliable/internal/core/delayarray"
	"mmreliable/internal/core/multibeam"
	"mmreliable/internal/dsp"
	"mmreliable/internal/env"
	"mmreliable/internal/link"
	"mmreliable/internal/stats"
)

// Fig08DelaySpread reproduces Fig. 7/8: SNR across the 400 MHz band for a
// strong 2-path channel with 5 ns and 10 ns delay spreads, comparing the
// single beam, the plain constructive multi-beam (which ripples), and the
// delay-phased-array multi-beam (flat at the combining gain).
func Fig08DelaySpread(cfg Config) *stats.Table {
	u := antenna.NewULA(16, 28e9)
	budget := link.DefaultBudget()
	offs := channel.SubcarrierOffsets(400e6, 16)

	t := stats.NewTable("Fig 8 — SNR (dB) across frequency",
		"freq_MHz", "single_5ns", "plain_5ns", "delayopt_5ns", "plain_10ns", "delayopt_10ns")

	type resp struct{ single, plain, opt []float64 }
	evaluate := func(spreadNs float64) resp {
		m := channel.FromSpecs(env.Band28GHz(), u, 80, []channel.PathSpec{
			{AoDDeg: 0},
			{AoDDeg: 30, RelAttDB: 1, PhaseRad: 0.7, DelayNs: spreadNs},
		})
		delta, sigma := m.RelativeGain(1, 0)
		single := u.SingleBeam(0)
		plain, err := multibeam.WeightsInto(u, []multibeam.Beam{
			multibeam.Reference(0),
			{Angle: dsp.Rad(30), Amp: delta, Phase: sigma},
		}, nil, nil)
		if err != nil {
			panic(err)
		}
		da, err := delayarray.ForChannel(u,
			[]float64{0, dsp.Rad(30)},
			[]complex128{1, cmplx.Rect(delta, sigma)},
			[]float64{0, spreadNs * 1e-9})
		if err != nil {
			panic(err)
		}
		out := resp{}
		for _, f := range offs {
			out.single = append(out.single, budget.SNRdB(cmplx.Abs(m.Effective(single, f))))
			out.plain = append(out.plain, budget.SNRdB(cmplx.Abs(m.Effective(plain, f))))
			out.opt = append(out.opt, budget.SNRdB(cmplx.Abs(da.Effective(m, f))))
		}
		return out
	}
	r5 := evaluate(5)
	r10 := evaluate(10)
	for i, f := range offs {
		t.AddRow(stats.Fmt(f/1e6),
			stats.Fmt(r5.single[i]), stats.Fmt(r5.plain[i]), stats.Fmt(r5.opt[i]),
			stats.Fmt(r10.plain[i]), stats.Fmt(r10.opt[i]))
	}
	t.AddRow("ripple_dB",
		stats.Fmt(stats.Max(r5.single)-stats.Min(r5.single)),
		stats.Fmt(stats.Max(r5.plain)-stats.Min(r5.plain)),
		stats.Fmt(stats.Max(r5.opt)-stats.Min(r5.opt)),
		stats.Fmt(stats.Max(r10.plain)-stats.Min(r10.plain)),
		stats.Fmt(stats.Max(r10.opt)-stats.Min(r10.opt)))
	return t
}
