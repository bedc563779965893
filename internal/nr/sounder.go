package nr

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"mmreliable/internal/channel"
	"mmreliable/internal/cmx"
	"mmreliable/internal/dsp"
)

// Impairments controls the hardware offsets applied to each probe.
type Impairments struct {
	// CFO gives every probe an unknown common phase rotation drawn
	// uniformly from [0, 2π). Real CFO drifts continuously; what matters to
	// the estimators is that the phase is not comparable across probes.
	CFO bool
	// SFOMaxSlope is the maximum magnitude of the random linear phase slope
	// across the band (radians from band edge to band edge) modelling
	// sampling/timing offset. 0 disables.
	SFOMaxSlope float64
}

// DefaultImpairments enables CFO and a ±0.5 rad edge-to-edge SFO slope.
func DefaultImpairments() Impairments {
	return Impairments{CFO: true, SFOMaxSlope: 0.5}
}

// Sounder measures wideband CSI through the OFDM pilot path: it modulates a
// known QPSK pilot onto the subcarriers, runs it through an IFFT/FFT OFDM
// round trip with the channel applied per subcarrier, adds receiver AWGN,
// applies CFO/SFO, and least-squares-estimates the channel.
type Sounder struct {
	Num         Numerology
	BandwidthHz float64
	NumSC       int     // number of measured subcarriers (power of two)
	NoiseAmp    float64 // per-subcarrier noise amplitude relative to unit TX
	Imp         Impairments

	rng   *rand.Rand
	pilot cmx.Vector
	// offsets caches SubcarrierOffsets at construction; Probe used to
	// re-allocate this []float64 on every sounding.
	offsets []float64
	// hRe/hIm (the true wideband channel, planar) and tdBuf (the OFDM
	// time-domain round trip) are the per-sounder scratch of the probe hot
	// path. A Sounder is single-threaded by construction (it owns an rng),
	// so the scratch needs no synchronization.
	hRe, hIm []float64
	tdBuf    cmx.Vector
	// Probes counts channel soundings for overhead accounting.
	Probes int
}

// NewSounder builds a sounder. numSC must be a power of two (the CIR path
// uses an IFFT).
func NewSounder(num Numerology, bandwidthHz float64, numSC int, noiseAmp float64, imp Impairments, rng *rand.Rand) (*Sounder, error) {
	if !dsp.IsPow2(numSC) {
		return nil, fmt.Errorf("nr: numSC %d is not a power of two", numSC)
	}
	if bandwidthHz <= 0 {
		return nil, fmt.Errorf("nr: non-positive bandwidth %g", bandwidthHz)
	}
	if noiseAmp < 0 {
		return nil, fmt.Errorf("nr: negative noise amplitude %g", noiseAmp)
	}
	if err := num.Validate(); err != nil {
		return nil, err
	}
	s := &Sounder{
		Num:         num,
		BandwidthHz: bandwidthHz,
		NumSC:       numSC,
		NoiseAmp:    noiseAmp,
		Imp:         imp,
		rng:         rng,
	}
	s.pilot = qpskPilot(numSC)
	s.offsets = channel.SubcarrierOffsets(bandwidthHz, numSC)
	s.hRe = make([]float64, numSC)
	s.hIm = make([]float64, numSC)
	s.tdBuf = make(cmx.Vector, numSC)
	return s, nil
}

// qpskPilot returns a deterministic unit-magnitude QPSK reference sequence
// (a quadratic-phase Zadoff-Chu-flavored sequence, constant amplitude).
func qpskPilot(n int) cmx.Vector {
	p := make(cmx.Vector, n)
	for k := range p {
		// Quadratic phase quantized to QPSK.
		q := (k * k) % 4
		p[k] = cmplx.Exp(complex(0, float64(q)*math.Pi/2+math.Pi/4))
	}
	return p
}

// SubcarrierOffsets returns the baseband frequency of each measured
// subcarrier. The returned slice is the sounder's cached copy — treat it as
// read-only.
func (s *Sounder) SubcarrierOffsets() []float64 {
	if s.offsets == nil {
		s.offsets = channel.SubcarrierOffsets(s.BandwidthHz, s.NumSC)
	}
	return s.offsets
}

// Probe sounds the channel with TX beam w and returns the estimated
// per-subcarrier CSI (impaired and noisy). The estimate ĥ[k] satisfies
// ĥ[k] = e^{jθ}e^{jφk}·h[k] + ν[k] with θ the CFO phase, φ the SFO slope,
// and ν white noise of amplitude NoiseAmp.
func (s *Sounder) Probe(m *channel.Model, w cmx.Vector) cmx.Vector {
	return s.ProbeInto(m, w, make(cmx.Vector, s.NumSC))
}

// ProbeInto is Probe writing the CSI estimate into dst (allocated when
// nil), reusing the sounder's internal scratch for the channel evaluation
// and the OFDM round trip — zero allocations in steady state. dst must not
// alias a previous ProbeInto result the caller still needs; the RNG
// consumption is identical to Probe's, so mixing Probe and ProbeInto calls
// leaves every random draw unchanged.
func (s *Sounder) ProbeInto(m *channel.Model, w cmx.Vector, dst cmx.Vector) cmx.Vector {
	// True channel per subcarrier under this beam.
	m.EffectiveWidebandSplitInto(w, s.SubcarrierOffsets(), s.hRe, s.hIm)
	return s.ProbeFromSplit(s.hRe, s.hIm, dst)
}

// ProbeFromSplit is ProbeInto with the true wideband channel response
// already evaluated by the caller as a planar row (hRe, hIm) — the seam a
// frame-barrier batch uses: evaluate every (model, beam) response in one
// channel.WidebandBatch pass, then push each row through its sounder's
// OFDM/noise/impairment chain. ProbeInto runs the same chain on the row it
// evaluates itself, so the two produce identical bits and identical RNG
// consumption for the same row. The row is only read; dst is allocated when
// nil.
func (s *Sounder) ProbeFromSplit(hRe, hIm []float64, dst cmx.Vector) cmx.Vector {
	if dst == nil {
		dst = make(cmx.Vector, s.NumSC)
	}
	if len(dst) != s.NumSC {
		panic(fmt.Sprintf("nr: probe dst length %d != %d subcarriers", len(dst), s.NumSC))
	}
	if len(hRe) != s.NumSC || len(hIm) != s.NumSC {
		panic(fmt.Sprintf("nr: probe channel lengths %d/%d != %d subcarriers", len(hRe), len(hIm), s.NumSC))
	}
	// OFDM round trip: pilot → IFFT → (channel in time domain is exactly a
	// per-subcarrier multiply for CP-OFDM) → FFT → equalize.
	td := s.tdBuf
	for i := range td {
		td[i] = s.pilot[i] * complex(hRe[i], hIm[i])
	}
	if err := dsp.IFFT(td); err != nil {
		panic(err) // length checked at construction
	}
	// Receiver AWGN in the time domain (unitary pair keeps the
	// per-subcarrier noise amplitude equal to NoiseAmp).
	sigma := s.NoiseAmp / math.Sqrt2
	scale := 1 / math.Sqrt(float64(s.NumSC))
	for i := range td {
		td[i] += complex(s.rng.NormFloat64()*sigma*scale, s.rng.NormFloat64()*sigma*scale)
	}
	rx := td
	if err := dsp.FFT(rx); err != nil {
		panic(err)
	}
	// Equalize by the known pilot.
	for k := range dst {
		dst[k] = rx[k] / s.pilot[k]
	}
	// Impairments.
	var theta, slope float64
	if s.Imp.CFO {
		theta = s.rng.Float64() * 2 * math.Pi
	}
	if s.Imp.SFOMaxSlope > 0 {
		slope = (s.rng.Float64()*2 - 1) * s.Imp.SFOMaxSlope
	}
	if theta != 0 || slope != 0 {
		for k := range dst {
			// e^{jφ} as (cos φ, sin φ): the same bits as cmplx.Exp of a
			// purely imaginary argument, without its math.Exp(0).
			frac := float64(k)/float64(s.NumSC) - 0.5
			sn, cs := math.Sincos(theta + slope*frac)
			dst[k] *= complex(cs, sn)
		}
	}
	s.Probes++
	return dst
}

// RSS returns the mean per-subcarrier power of a CSI estimate — the
// magnitude observable that survives CFO/SFO.
func RSS(csi cmx.Vector) float64 {
	if len(csi) == 0 {
		return 0
	}
	var p float64
	for _, h := range csi {
		p += real(h)*real(h) + imag(h)*imag(h)
	}
	return p / float64(len(csi))
}

// CIR converts a wideband CSI estimate into a channel impulse response by
// inverse FFT. Index n corresponds to delay n/Bandwidth (modulo the CIR
// span); the super-resolution module fits sinc kernels to this.
func (s *Sounder) CIR(csi cmx.Vector) cmx.Vector {
	return s.CIRInto(csi, make(cmx.Vector, s.NumSC))
}

// CIRInto is CIR writing into dst (allocated when nil) — the maintenance
// loop's zero-allocation variant. dst must not alias csi.
func (s *Sounder) CIRInto(csi, dst cmx.Vector) cmx.Vector {
	if len(csi) != s.NumSC {
		panic(fmt.Sprintf("nr: CIR length %d != %d subcarriers", len(csi), s.NumSC))
	}
	if dst == nil {
		dst = make(cmx.Vector, s.NumSC)
	}
	if len(dst) != s.NumSC {
		panic(fmt.Sprintf("nr: CIR dst length %d != %d subcarriers", len(dst), s.NumSC))
	}
	copy(dst, csi)
	if err := dsp.IFFT(dst); err != nil {
		panic(err)
	}
	return dst
}

// SampleSpacing returns the delay resolution of the CIR (1/Bandwidth), the
// paper's "system resolution" (2.5 ns at 400 MHz).
func (s *Sounder) SampleSpacing() float64 { return 1 / s.BandwidthHz }

// DelayKernelInto writes into dst (allocated when nil) the CIR signature of
// a unit-amplitude path at delay tau: the inverse FFT of its baseband
// frequency response over this sounder's subcarriers. Super-resolution
// (Eq. 23) uses these as dictionary columns so the model matches the
// measurement transform exactly; for delays well inside the CIR span the
// magnitude approaches |sinc(B(nTs − τ))| (Eq. 22). A caller that evaluates
// many delays — building a super-resolution dictionary, say — can run on
// one reused scratch column.
func (s *Sounder) DelayKernelInto(tau float64, dst cmx.Vector) cmx.Vector {
	// Closed form of IFFT_n{e^{−j2πf_k τ}} over the centered subcarrier
	// grid f_k = −B/2 + (k+½)B/N: a geometric series whose ratio at output
	// tap n is ρ_n = e^{j(2πn/N − 2πBτ/N)} and whose N-th power is the
	// n-independent constant e^{−j2πBτ}. Equivalent to the IFFT the CIR
	// path computes, at a fraction of the cost.
	n := s.NumSC
	out := dst
	if out == nil {
		out = make(cmx.Vector, n)
	}
	if len(out) != n {
		panic(fmt.Sprintf("nr: delay-kernel dst length %d != %d subcarriers", len(out), n))
	}
	bTau := s.BandwidthHz * tau
	lead := cmplx.Exp(complex(0, -2*math.Pi*(-s.BandwidthHz/2+s.BandwidthHz/(2*float64(n)))*tau))
	num := cmplx.Exp(complex(0, -2*math.Pi*bTau)) - 1
	ls := lead * complex(1/float64(n), 0)
	lsn := ls * num
	// ρ_n advances by a fixed rotation per tap; one exp seeds the
	// recurrence (64 steps accumulate negligible drift).
	step := cmplx.Exp(complex(0, 2*math.Pi/float64(n)))
	rho := cmplx.Exp(complex(0, -2*math.Pi*bTau/float64(n)))
	for i := 0; i < n; i++ {
		den := rho - 1
		// |den|² < (1e-12)²: same degenerate-ratio branch as an abs
		// check, without the hypot; the ratio itself multiplies by the
		// conjugate reciprocal instead of paying a complex division per
		// tap.
		d := real(den)*real(den) + imag(den)*imag(den)
		if d < 1e-24 {
			out[i] = ls * complex(float64(n), 0)
		} else {
			inv := 1 / d
			out[i] = lsn * complex(real(den)*inv, -imag(den)*inv)
		}
		rho *= step
	}
	return out
}
