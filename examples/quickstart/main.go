// Quickstart: build a two-path mmWave channel, estimate the constructive
// multi-beam parameters with the paper's two-probe method, and compare the
// multi-beam SNR against the conventional single beam.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
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
)

// prober couples the OFDM sounder with the live channel.
type prober struct {
	s *nr.Sounder
	m *channel.Model
}

func (p *prober) ProbeInto(w, dst cmx.Vector) cmx.Vector { return p.s.ProbeInto(p.m, w, dst) }

func main() {
	// A 7 m indoor link: LOS at 0° plus a strong reflection at 30° that is
	// 4 dB weaker and arrives 0.9 ns later.
	u := antenna.NewULA(8, 28e9)
	band := env.Band28GHz()
	m := channel.FromSpecs(band, u, band.PathLossDB(7), []channel.PathSpec{
		{AoDDeg: 0, DelayNs: 23.3},
		{AoDDeg: 30, RelAttDB: 4, PhaseRad: 2.5, DelayNs: 24.2},
	})

	budget := link.DefaultBudget()
	sounder, err := nr.NewSounder(nr.Mu3(), budget.BandwidthHz, 64,
		budget.NoiseToTxAmpRatio(), nr.DefaultImpairments(), rand.New(rand.NewSource(1)))
	if err != nil {
		panic(err)
	}
	pr := &prober{s: sounder, m: m}

	// Beam training found the two departure angles; measure each beam once.
	angles := []float64{0, dsp.Rad(30)}
	m1 := pr.ProbeInto(u.SingleBeam(angles[0]), nil).Abs()
	m2 := pr.ProbeInto(u.SingleBeam(angles[1]), nil).Abs()

	// Two extra magnitude-only probes recover the relative channel (δ, σ)
	// despite CFO/SFO (§3.3, Eq. 11–12, wideband fusion Eq. 14).
	est, err := probe.EstimatePairWithDelayWS(pr, u, angles[0], angles[1], m1, m2, 0.9e-9, budget.BandwidthHz, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("two-probe estimate: δ = %.2f dB, σ = %.2f rad\n", dsp.AmpDB(est.Delta), est.Sigma)

	// Synthesize the constructive multi-beam and compare.
	w, err := multibeam.WeightsInto(u, []multibeam.Beam{
		multibeam.Reference(angles[0]),
		{Angle: angles[1], Amp: est.Delta, Phase: est.Sigma},
	}, nil, nil)
	if err != nil {
		panic(err)
	}
	offs := channel.SubcarrierOffsets(budget.BandwidthHz, 64)
	re, im := make([]float64, len(offs)), make([]float64, len(offs))
	txLin, noiseLin := budget.SNRTerms()
	m.EffectiveWidebandSplitInto(u.SingleBeam(angles[0]), offs, re, im)
	single := link.WidebandSNRdB(re, im, txLin, noiseLin)
	m.EffectiveWidebandSplitInto(w, offs, re, im)
	multi := link.WidebandSNRdB(re, im, txLin, noiseLin)
	fmt.Printf("single beam SNR : %.2f dB → %.0f Mbps\n", single, link.Throughput(single, budget.BandwidthHz, 0)/1e6)
	fmt.Printf("multi-beam SNR  : %.2f dB → %.0f Mbps\n", multi, link.Throughput(multi, budget.BandwidthHz, 0)/1e6)
	fmt.Printf("constructive combining gain: %.2f dB\n", multi-single)
}
