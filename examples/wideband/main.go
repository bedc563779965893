// Wideband operation (the §3.4 / Fig. 7–8 scenario): with a 10 ns
// multipath delay spread, a plain constructive multi-beam has deep in-band
// fades; the delay phased array (one panel per lobe behind true-time delay
// lines) compensates the spread and is flat at the full combining gain.
//
//	go run ./examples/wideband
package main

import (
	"fmt"
	"math/cmplx"
	"strings"

	"mmreliable/internal/antenna"
	"mmreliable/internal/channel"
	"mmreliable/internal/core/delayarray"
	"mmreliable/internal/core/multibeam"
	"mmreliable/internal/dsp"
	"mmreliable/internal/env"
	"mmreliable/internal/link"
)

func main() {
	const spreadNs = 10.0
	u := antenna.NewULA(16, 28e9)
	m := channel.FromSpecs(env.Band28GHz(), u, 80, []channel.PathSpec{
		{AoDDeg: 0},
		{AoDDeg: 30, RelAttDB: 1, PhaseRad: 0.7, DelayNs: spreadNs},
	})
	delta, sigma := m.RelativeGain(1, 0)
	budget := link.DefaultBudget()
	offs := channel.SubcarrierOffsets(400e6, 48)

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

	fmt.Printf("2-path channel, second path %.1f dB down with %.0f ns excess delay\n\n", -dsp.AmpDB(delta), spreadNs)
	fmt.Println("SNR across the 400 MHz band:")
	fmt.Printf("%-22s %s\n", "", band(offs))
	render := func(name string, snr func(f float64) float64) {
		var sb strings.Builder
		lo, hi, sum := 999.0, -999.0, 0.0
		for _, f := range offs {
			s := snr(f)
			sum += s
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
			switch {
			case s < 20:
				sb.WriteByte('.')
			case s < 26:
				sb.WriteByte('o')
			default:
				sb.WriteByte('#')
			}
		}
		fmt.Printf("%-22s %s  mean %.1f dB, ripple %.1f dB\n", name, sb.String(), sum/float64(len(offs)), hi-lo)
	}
	render("single beam", func(f float64) float64 {
		return budget.SNRdB(cmplx.Abs(m.Effective(single, f)))
	})
	render("plain multi-beam", func(f float64) float64 {
		return budget.SNRdB(cmplx.Abs(m.Effective(plain, f)))
	})
	render("delay phased array", func(f float64) float64 {
		return budget.SNRdB(cmplx.Abs(da.Effective(m, f)))
	})
	fmt.Println("\nlegend: '#' ≥26 dB, 'o' 20–26 dB, '.' <20 dB")
}

func band(offs []float64) string {
	return fmt.Sprintf("%.0f MHz %s +%.0f MHz",
		offs[0]/1e6, strings.Repeat(" ", len(offs)-16), offs[len(offs)-1]/1e6)
}
