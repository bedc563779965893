package experiments

import (
	"math"

	"mmreliable/internal/antenna"
	"mmreliable/internal/channel"
	"mmreliable/internal/core/superres"
	"mmreliable/internal/env"
	"mmreliable/internal/nr"
	"mmreliable/internal/stats"
)

// Fig11aSuperresMSE reproduces Fig. 11a: mean squared error of the
// per-beam power estimate versus the relative ToF between the two paths,
// including points below the 2.5 ns system resolution of the 400 MHz
// sounder.
func Fig11aSuperresMSE(cfg Config) *stats.Table {
	u := antenna.NewULA(8, 28e9)
	rng := cfg.rng(111)
	s, err := nr.NewSounder(nr.Mu3(), 400e6, 64, 2e-6, nr.DefaultImpairments(), rng)
	if err != nil {
		panic(err)
	}
	trials := cfg.runs(50)
	t := stats.NewTable("Fig 11a — per-beam power estimation error vs relative ToF",
		"rel_tof_ns", "rmse_dB_beam0", "rmse_dB_beam1")
	for _, tofNs := range []float64{0.5, 1.0, 1.5, 2.0, 2.5, 3.5, 5.0} {
		var e0, e1 []float64
		for trial := 0; trial < trials; trial++ {
			m := channel.FromSpecs(env.Band28GHz(), u, 80, []channel.PathSpec{
				{AoDDeg: 0, DelayNs: 20},
				{AoDDeg: 30, RelAttDB: 3, PhaseRad: 1.0, DelayNs: 20 + tofNs},
			})
			w := m.PerAntennaCSI(0).Conj().Normalize()
			truth := make([]float64, 2)
			for k := range m.Paths {
				g := m.PathGain(k, 0) * m.Tx.SteeringInto(m.Paths[k].AoD, nil).Dot(w)
				truth[k] = real(g)*real(g) + imag(g)*imag(g)
			}
			cir := s.CIR(s.Probe(m, w))
			res, err := superres.ExtractInto(cir, []float64{0, tofNs * 1e-9}, s.SampleSpacing(), superres.DefaultConfig(), nil)
			if err != nil {
				continue
			}
			e0 = append(e0, 10*math.Log10(res.Power[0]/truth[0]))
			e1 = append(e1, 10*math.Log10(res.Power[1]/truth[1]))
		}
		t.AddRow(stats.Fmt(tofNs), stats.Fmt(rmse0(e0)), stats.Fmt(rmse0(e1)))
	}
	return t
}

func rmse0(errs []float64) float64 {
	if len(errs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, e := range errs {
		s += e * e
	}
	return math.Sqrt(s / float64(len(errs)))
}

// Fig11bTwoSinc reproduces Fig. 11b: the measured combined CIR of a 6 m
// link with a reflector at 30° decomposed into its two sinc components by
// super-resolution. Columns: tap index, measured |CIR|, and the magnitudes
// of the two recovered components.
func Fig11bTwoSinc(cfg Config) *stats.Table {
	u := antenna.NewULA(8, 28e9)
	rng := cfg.rng(112)
	s, err := nr.NewSounder(nr.Mu3(), 400e6, 64, 1e-6, nr.DefaultImpairments(), rng)
	if err != nil {
		panic(err)
	}
	// 6 m LOS (20 ns) plus reflection at 30° with ~8 ns excess delay.
	const excess = 8e-9
	m := channel.FromSpecs(env.Band28GHz(), u, 79, []channel.PathSpec{
		{AoDDeg: 0, DelayNs: 20},
		{AoDDeg: 30, RelAttDB: 4, PhaseRad: 0.8, DelayNs: 20 + excess*1e9},
	})
	w := m.PerAntennaCSI(0).Conj().Normalize()
	cir := s.CIR(s.Probe(m, w))
	res, err := superres.ExtractInto(cir, []float64{0, excess}, s.SampleSpacing(), superres.DefaultConfig(), nil)
	if err != nil {
		panic(err)
	}
	// Reconstruct the two components on the aligned grid.
	k0 := s.DelayKernelInto(res.BaseDelay, nil).Scaled(res.Amp[0])
	k1 := s.DelayKernelInto(res.BaseDelay+excess, nil).Scaled(res.Amp[1])

	t := stats.NewTable("Fig 11b — two-sinc decomposition of the measured CIR",
		"tap", "sinc0_mag", "sinc1_mag", "combined_mag")
	sum := k0.Add(k1).Abs()
	mags0 := k0.Abs()
	mags1 := k1.Abs()
	for i := 0; i < 16; i++ {
		t.AddRow(stats.Fmt(float64(i)), stats.Fmt(mags0[i]), stats.Fmt(mags1[i]), stats.Fmt(sum[i]))
	}
	t.AddRow("fit_residual", stats.Fmt(res.Residual), "", "")
	return t
}
