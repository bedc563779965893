package env

import "math"

// SpeedOfLight in m/s.
const SpeedOfLight = 299_792_458.0

// Band captures the propagation constants of an mmWave carrier.
type Band struct {
	Name          string
	CarrierHz     float64 // center frequency
	AbsorptionDBm float64 // atmospheric absorption in dB per meter
}

// Band28GHz is the 5G NR FR2 n257/n261-class band the paper's testbed uses.
// Oxygen absorption at 28 GHz is negligible (~0.06 dB/km).
func Band28GHz() Band {
	return Band{Name: "28GHz", CarrierHz: 28e9, AbsorptionDBm: 0.06e-3}
}

// Band60GHz is the unlicensed 802.11ad band of the paper's Appendix B,
// where the oxygen absorption peak adds ≈16 dB/km on top of the higher
// free-space loss.
func Band60GHz() Band {
	return Band{Name: "60GHz", CarrierHz: 60e9, AbsorptionDBm: 16e-3}
}

// Lambda returns the carrier wavelength in meters.
func (b Band) Lambda() float64 { return SpeedOfLight / b.CarrierHz }

// FSPLdB returns the free-space path loss in dB at distance d meters:
// 20·log10(4πd/λ).
func (b Band) FSPLdB(d float64) float64 {
	if d <= 0 {
		return 0
	}
	return 20 * math.Log10(4*math.Pi*d/b.Lambda())
}

// PathLossDB returns the total propagation loss in dB over distance d,
// including atmospheric absorption.
func (b Band) PathLossDB(d float64) float64 {
	return b.FSPLdB(d) + b.AbsorptionDBm*d
}
