package dsp

import (
	"fmt"
)

// EWMA is an exponentially weighted moving average with a forgetting
// factor, used to smooth per-beam power time series. The zero value is
// ready to use after SetAlpha (or use NewEWMA).
type EWMA struct {
	alpha   float64
	value   float64
	started bool
}

// NewEWMA returns an EWMA with smoothing factor alpha in (0, 1]: the weight
// given to each new observation. alpha = 1 means no smoothing.
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("dsp: EWMA alpha %g out of (0, 1]", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Update folds a new observation into the average and returns the new value.
func (e *EWMA) Update(x float64) float64 {
	if !e.started {
		e.value = x
		e.started = true
		return x
	}
	e.value = e.alpha*x + (1-e.alpha)*e.value
	return e.value
}

// Value returns the current average (0 before any update).
func (e *EWMA) Value() float64 { return e.value }

// Started reports whether any observation has been folded in.
func (e *EWMA) Started() bool { return e.started }

// Reset clears the average.
func (e *EWMA) Reset() { e.value, e.started = 0, false }

// SlopePerSample returns the least-squares slope of y against its sample
// index, in y-units per sample. The blockage detector uses this on recent
// per-beam power (dB) history: a steep negative slope marks a blockage
// onset, a gentle one marks mobility (§4.1).
func SlopePerSample(y []float64) float64 {
	n := len(y)
	if n < 2 {
		return 0
	}
	// Closed form for x = 0..n-1.
	var sy, sxy float64
	for i, v := range y {
		sy += v
		sxy += float64(i) * v
	}
	fn := float64(n)
	sx := fn * (fn - 1) / 2
	sxx := (fn - 1) * fn * (2*fn - 1) / 6
	den := fn*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (fn*sxy - sx*sy) / den
}
