package antenna

import (
	"mmreliable/internal/cmx"
)

// Codebook is an indexed set of beamforming weight vectors with their
// nominal steering angles, as stored in phased-array register banks.
type Codebook struct {
	Angles  []float64    // nominal steering angle per entry (radians)
	Weights []cmx.Vector // unit-norm weights per entry
}

// Len returns the number of codebook entries.
func (c *Codebook) Len() int { return len(c.Weights) }

// DFTCodebook builds a uniform codebook of n matched single beams spanning
// [minAngle, maxAngle]. 5G NR SSB sweeps scan such a codebook during beam
// training.
func DFTCodebook(u *ULA, n int, minAngle, maxAngle float64) *Codebook {
	cb := &Codebook{
		Angles:  make([]float64, n),
		Weights: make([]cmx.Vector, n),
	}
	for i := 0; i < n; i++ {
		frac := 0.5
		if n > 1 {
			frac = float64(i) / float64(n-1)
		}
		ang := minAngle + frac*(maxAngle-minAngle)
		cb.Angles[i] = ang
		cb.Weights[i] = u.SingleBeam(ang)
	}
	return cb
}

// WideBeam returns a unit-norm weight vector that uses only the first
// active elements of the array (the rest set to zero), producing a beam
// roughly N/active times wider with proportionally less gain. This is the
// "widebeam" baseline of the paper's Fig. 18b.
func WideBeam(u *ULA, phi float64, active int) cmx.Vector {
	if active <= 0 {
		active = 1
	}
	if active > u.N {
		active = u.N
	}
	w := make(cmx.Vector, u.N)
	sub := &ULA{N: active, Spacing: u.Spacing, Lambda: u.Lambda}
	ws := sub.SingleBeam(phi)
	copy(w, ws)
	return w.Normalize()
}
