// Package delayarray implements the paper's §3.4 delay phased array: two
// (or more) phased-array panels connected through variable true-time delay
// lines to a single RF chain (Fig. 6). Each panel forms one lobe of the
// multi-beam. A plain multi-beam adds copies of the signal that traveled
// different path delays, so across a wide band some frequencies combine
// destructively; programming each panel's delay line to pre-compensate its
// path's excess delay makes every frequency combine constructively,
// restoring a flat wideband response (Fig. 7/8) while keeping the full
// aperture per lobe.
package delayarray

import (
	"fmt"
	"math"
	"math/cmplx"

	"mmreliable/internal/antenna"
	"mmreliable/internal/channel"
	"mmreliable/internal/cmx"
)

// Group is one panel of the delay phased array.
type Group struct {
	// Angle is the panel's lobe steering direction (radians).
	Angle float64
	// Coeff is the panel's complex coefficient (constructive-combining
	// amplitude and carrier phase, as for a plain multi-beam).
	Coeff complex128
	// Delay is the panel's true-time delay line setting (seconds).
	Delay float64
}

// Array is a delay phased array: one full-aperture panel per lobe, sharing
// a single RF chain. Total radiated power is conserved across panels
// (Σ‖per-panel weights‖² = 1), so the comparison against a single-panel
// single beam is at equal TRP.
type Array struct {
	Panel  *antenna.ULA // geometry of each panel
	Groups []Group

	norm float64
}

// New builds a delay phased array with one panel per group.
func New(panel *antenna.ULA, groups []Group) (*Array, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("delayarray: no groups")
	}
	if err := panel.Validate(); err != nil {
		return nil, err
	}
	var n2 float64
	for i, g := range groups {
		if g.Delay < 0 {
			return nil, fmt.Errorf("delayarray: negative delay on group %d", i)
		}
		c := cmplx.Abs(g.Coeff)
		n2 += c * c // per-panel beam is unit norm, scaled by |coeff|
	}
	if n2 < 1e-30 {
		return nil, fmt.Errorf("delayarray: zero total coefficient power")
	}
	return &Array{Panel: panel, Groups: groups, norm: math.Sqrt(n2)}, nil
}

// PanelWeights returns panel g's unit-TRP-share weights at baseband offset
// fOff: the matched beam toward the group angle, scaled by the group
// coefficient, rotated by the true-time delay's frequency-dependent phase
// e^{−j2π·fOff·Δτ} (the carrier component of the delay is absorbed into
// Coeff, as the panel's phase shifters would), and divided by the global
// TRP normalization.
func (a *Array) PanelWeights(g int, fOff float64) cmx.Vector {
	grp := a.Groups[g]
	rot := grp.Coeff * cmplx.Exp(complex(0, -2*math.Pi*fOff*grp.Delay))
	w := a.Panel.SingleBeam(grp.Angle)
	return w.Scale(rot / complex(a.norm, 0))
}

// Effective returns the effective scalar channel of the delay phased array
// over channel m at baseband offset fOff: the sum of each panel's effective
// channel (all panels feed the same RF chain).
func (a *Array) Effective(m *channel.Model, fOff float64) complex128 {
	var y complex128
	for g := range a.Groups {
		y += m.Effective(a.PanelWeights(g, fOff), fOff)
	}
	return y
}

// EffectiveWidebandInto evaluates Effective at each frequency offset,
// writing into dst (allocated when nil). Instead of re-deriving every
// panel's weights at every frequency, it factors each panel's response as
//
//	y_g(f) = (Coeff_g/‖·‖)·e^{−j2πfΔτ_g} · h_g(f),
//
// where h_g(f) is the channel under the panel's UNSCALED matched beam —
// evaluated once per panel by the factored wideband kernel — and the
// per-frequency rotation of the true-time delay line is applied as a scalar
// multiply. Same separability trick as channel.EffectiveWidebandInto: the
// panel beam is frequency-independent, only the delay-line phase sweeps.
func (a *Array) EffectiveWidebandInto(m *channel.Model, fOffs []float64, dst cmx.Vector) cmx.Vector {
	if dst == nil {
		dst = make(cmx.Vector, len(fOffs))
	}
	if len(dst) != len(fOffs) {
		panic(fmt.Sprintf("delayarray: dst length %d != %d offsets", len(dst), len(fOffs)))
	}
	for i := range dst {
		dst[i] = 0
	}
	hg := make(cmx.Vector, len(fOffs))
	w := make(cmx.Vector, a.Panel.N)
	for g := range a.Groups {
		grp := a.Groups[g]
		a.Panel.SingleBeamInto(grp.Angle, w)
		m.EffectiveWidebandInto(w, fOffs, hg)
		base := grp.Coeff / complex(a.norm, 0)
		for k, f := range fOffs {
			rot := base * cmplx.Exp(complex(0, -2*math.Pi*f*grp.Delay))
			dst[k] += rot * hg[k]
		}
	}
	return dst
}

// CompensatingDelays returns per-panel delay settings that equalize the
// given path delays: Δτ_g = max(τ) − τ_g, so every branch arrives at the
// receiver with the same total delay and the wideband response is flat.
func CompensatingDelays(pathDelays []float64) []float64 {
	if len(pathDelays) == 0 {
		return nil
	}
	maxD := pathDelays[0]
	for _, d := range pathDelays[1:] {
		if d > maxD {
			maxD = d
		}
	}
	out := make([]float64, len(pathDelays))
	for i, d := range pathDelays {
		out[i] = maxD - d
	}
	return out
}

// ForChannel builds a delay-compensated array matched to an exactly-sparse
// channel: one panel per path, steered at the path's AoD, with the
// conjugate of the path's relative gain as coefficient and delay lines
// compensating the relative path delays. ratios[k] = h_k/h_0 as measured by
// the probe package (ratios[0] = 1); delays[k] is path k's (relative or
// absolute) delay.
func ForChannel(panel *antenna.ULA, angles []float64, ratios []complex128, delays []float64) (*Array, error) {
	if len(angles) != len(ratios) || len(angles) != len(delays) {
		return nil, fmt.Errorf("delayarray: mismatched lengths %d/%d/%d", len(angles), len(ratios), len(delays))
	}
	comp := CompensatingDelays(delays)
	groups := make([]Group, len(angles))
	for k := range angles {
		groups[k] = Group{
			Angle: angles[k],
			Coeff: cmplx.Conj(ratios[k]),
			Delay: comp[k],
		}
	}
	return New(panel, groups)
}

// RippleDB returns the peak-to-peak variation (dB) of a wideband response —
// the flatness figure of merit in Fig. 8.
func RippleDB(resp cmx.Vector) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, h := range resp {
		p := real(h)*real(h) + imag(h)*imag(h)
		lo = math.Min(lo, p)
		hi = math.Max(hi, p)
	}
	if lo <= 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(hi/lo)
}
