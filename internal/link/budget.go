// Package link converts channel observables into link-level metrics: SNR
// from a link budget, SNR to throughput via the 5G NR CQI/MCS spectral
// efficiency table, the 6 dB outage threshold the paper uses for decodable
// 5G NR OFDM, and the reliability bookkeeping behind the paper's
// throughput–reliability product.
package link

import (
	"fmt"
	"math"

	"mmreliable/internal/cmx"
	"mmreliable/internal/dsp"
)

// OutageThresholdDB is the minimum SNR for a decodable 5G NR OFDM link
// (§6.1 of the paper: "below the outage threshold of 6 dB SNR").
const OutageThresholdDB = 6.0

// Budget is a transmit/noise power budget. Channel gains produced by the
// channel package are linear field amplitudes including path loss and array
// gain, so received power is TxPowerDBm + 20·log10(|h_eff|).
type Budget struct {
	TxPowerDBm    float64 // total radiated power
	NoiseFigureDB float64
	BandwidthHz   float64
}

// DefaultBudget matches the paper's small-cell testbed scale: with an
// 8-element azimuth array this yields ≈27 dB SNR at 7 m indoors (Fig. 15a)
// and single-digit SNR at 80 m outdoors without UE beamforming.
func DefaultBudget() Budget {
	return Budget{TxPowerDBm: 15, NoiseFigureDB: 7, BandwidthHz: 400e6}
}

// Validate checks the budget fields.
func (b Budget) Validate() error {
	if b.BandwidthHz <= 0 {
		return fmt.Errorf("link: non-positive bandwidth %g", b.BandwidthHz)
	}
	return nil
}

// NoiseFloorDBm returns the thermal noise power over the budget bandwidth:
// −174 dBm/Hz + 10·log10(B) + NF.
func (b Budget) NoiseFloorDBm() float64 {
	return -174 + 10*math.Log10(b.BandwidthHz) + b.NoiseFigureDB
}

// SNRdB returns the link SNR for an effective scalar channel amplitude
// |h_eff| (linear).
func (b Budget) SNRdB(heffAbs float64) float64 {
	if heffAbs <= 0 {
		return math.Inf(-1)
	}
	rxDBm := b.TxPowerDBm + 20*math.Log10(heffAbs)
	return rxDBm - b.NoiseFloorDBm()
}

// WidebandSNRdB returns the effective wideband SNR of a per-subcarrier
// channel estimate: the capacity-equivalent SNR
//
//	SNR_eff = 2^(mean_k log2(1 + SNR_k)) − 1,
//
// which penalizes frequency-selective dips the way a real decoder does.
func (b Budget) WidebandSNRdB(csi cmx.Vector) float64 {
	if len(csi) == 0 {
		return math.Inf(-1)
	}
	noiseLin := math.Pow(10, b.NoiseFloorDBm()/10)
	txLin := math.Pow(10, b.TxPowerDBm/10)
	var sumLog float64
	for _, h := range csi {
		p := real(h)*real(h) + imag(h)*imag(h)
		snr := txLin * p / noiseLin
		sumLog += math.Log2(1 + snr)
	}
	eff := math.Exp2(sumLog/float64(len(csi))) - 1
	if eff <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(eff)
}

// SNRTerms returns the linear transmit and noise powers of the budget — the
// two math.Pow evaluations inside every WidebandSNRdB call, hoisted so a
// slot loop can compute them once and use WidebandSNRdBSplitTerms per
// evaluation.
func (b Budget) SNRTerms() (txLin, noiseLin float64) {
	return math.Pow(10, b.TxPowerDBm/10), math.Pow(10, b.NoiseFloorDBm()/10)
}

// WidebandSNRdBSplit is WidebandSNRdB over a planar per-subcarrier channel
// estimate (separate re/im slices, the batched-kernel layout).
func (b Budget) WidebandSNRdBSplit(re, im []float64) float64 {
	txLin, noiseLin := b.SNRTerms()
	return WidebandSNRdBSplitTerms(re, im, txLin, noiseLin)
}

// WidebandSNRdBSplitTerms is WidebandSNRdBSplit with the budget's linear
// terms (see SNRTerms) precomputed by the caller. The capacity sum runs on
// the planar dsp.SumLog2SNR kernel, which agrees with WidebandSNRdB's
// per-term sum to well under 1e-12.
func WidebandSNRdBSplitTerms(re, im []float64, txLin, noiseLin float64) float64 {
	if len(re) == 0 {
		return math.Inf(-1)
	}
	sumLog := dsp.SumLog2SNR(re, im, txLin, noiseLin)
	eff := math.Exp2(sumLog/float64(len(re))) - 1
	if eff <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(eff)
}

// WidebandSNRdBFromMags is WidebandSNRdB computed from per-subcarrier
// channel magnitudes (the CFO/SFO-proof observable a sounder provides).
func (b Budget) WidebandSNRdBFromMags(mags []float64) float64 {
	if len(mags) == 0 {
		return math.Inf(-1)
	}
	noiseLin := math.Pow(10, b.NoiseFloorDBm()/10)
	txLin := math.Pow(10, b.TxPowerDBm/10)
	var sumLog float64
	for _, m := range mags {
		snr := txLin * m * m / noiseLin
		sumLog += math.Log2(1 + snr)
	}
	eff := math.Exp2(sumLog/float64(len(mags))) - 1
	if eff <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(eff)
}

// NoiseToTxAmpRatio returns the per-subcarrier noise amplitude relative to
// unit transmit amplitude — the standard deviation a channel sounder should
// add to each CSI sample (per complex dimension it is this value divided by
// √2).
func (b Budget) NoiseToTxAmpRatio() float64 {
	return math.Pow(10, (b.NoiseFloorDBm()-b.TxPowerDBm)/20)
}
