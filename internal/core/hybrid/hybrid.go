// Package hybrid implements the §8 extension sketch: a gNB with multiple
// RF chains serving multiple users simultaneously, with interference-aware
// spatial beam assignment (after Jog et al., "many-to-many beam alignment")
// and optional per-user constructive multi-beams.
//
// Each RF chain drives the shared aperture with its own analog weight
// vector and carries one user's stream; user u then hears
//
//	y_u = h_uᵀ w_u s_u + Σ_{r≠u} h_uᵀ w_r s_r + n
//
// so the selection problem is to pick, for every user, which of its
// multipath directions to use such that the other users' beams leak as
// little as possible into it. With the sparse channels of mmWave (2–3 paths
// each), exhaustive search over the assignment space is cheap.
package hybrid

import (
	"fmt"
	"math"
	"math/cmplx"

	"mmreliable/internal/antenna"
	"mmreliable/internal/channel"
	"mmreliable/internal/cmx"
	"mmreliable/internal/core/multibeam"
	"mmreliable/internal/link"
)

// Assignment is one spatial-multiplexing configuration: beam choice and
// resulting per-user SINR.
type Assignment struct {
	// PathIdx[u] is the index of the path user u's chain is steered at.
	PathIdx []int
	// Weights[u] is user u's transmit weight vector (unit norm; the total
	// radiated power is split evenly across chains).
	Weights []cmx.Vector
	// SINRdB[u] is user u's post-scheduling signal-to-interference-plus-
	// noise ratio.
	SINRdB []float64
	// SumRate is Σ_u log2(1+SINR_u) in bits/s/Hz.
	SumRate float64
}

// sinrs computes per-user SINR for the given weight vectors, with transmit
// power split evenly across the chains.
func sinrs(users []*channel.Model, weights []cmx.Vector, budget link.Budget) []float64 {
	nUsers := len(users)
	noiseLin := math.Pow(10, budget.NoiseFloorDBm()/10)
	txLin := math.Pow(10, budget.TxPowerDBm/10) / float64(nUsers)
	out := make([]float64, nUsers)
	for u := range users {
		var sig, intf float64
		for r := range weights {
			h := users[u].Effective(weights[r], 0)
			p := real(h)*real(h) + imag(h)*imag(h)
			if r == u {
				sig = p
			} else {
				intf += p
			}
		}
		out[u] = 10 * math.Log10(txLin*sig/(noiseLin+txLin*intf))
	}
	return out
}

func sumRate(sinrDB []float64) float64 {
	var s float64
	for _, x := range sinrDB {
		s += math.Log2(1 + math.Pow(10, x/10))
	}
	return s
}

// SelectBeams exhaustively searches per-user path choices (each user's
// chain steered as a single beam at one of that user's paths) and returns
// the assignment maximizing the sum rate. All users must share the same
// transmit array.
func SelectBeams(u *antenna.ULA, users []*channel.Model, budget link.Budget) (Assignment, error) {
	if len(users) == 0 {
		return Assignment{}, fmt.Errorf("hybrid: no users")
	}
	for i, m := range users {
		if len(m.Paths) == 0 {
			return Assignment{}, fmt.Errorf("hybrid: user %d has no paths", i)
		}
	}
	nUsers := len(users)
	choice := make([]int, nUsers)
	best := Assignment{SumRate: math.Inf(-1)}
	var rec func(int)
	rec = func(depth int) {
		if depth == nUsers {
			weights := make([]cmx.Vector, nUsers)
			for i := range users {
				weights[i] = u.SingleBeam(users[i].Paths[choice[i]].AoD)
			}
			s := sinrs(users, weights, budget)
			if r := sumRate(s); r > best.SumRate {
				best = Assignment{
					PathIdx: append([]int(nil), choice...),
					Weights: weights,
					SINRdB:  append([]float64(nil), s...),
					SumRate: r,
				}
			}
			return
		}
		for k := range users[depth].Paths {
			choice[depth] = k
			rec(depth + 1)
		}
	}
	rec(0)
	return best, nil
}

// NaiveBeams steers every user's chain at that user's strongest path —
// the interference-oblivious baseline.
func NaiveBeams(u *antenna.ULA, users []*channel.Model, budget link.Budget) (Assignment, error) {
	if len(users) == 0 {
		return Assignment{}, fmt.Errorf("hybrid: no users")
	}
	a := Assignment{}
	for i, m := range users {
		k := m.StrongestPath()
		if k < 0 {
			return Assignment{}, fmt.Errorf("hybrid: user %d has no paths", i)
		}
		a.PathIdx = append(a.PathIdx, k)
		a.Weights = append(a.Weights, u.SingleBeam(m.Paths[k].AoD))
	}
	a.SINRdB = sinrs(users, a.Weights, budget)
	a.SumRate = sumRate(a.SINRdB)
	return a, nil
}

// WithMultibeam upgrades an assignment in place: each user's chain is
// tentatively re-synthesized as a constructive multi-beam over more of the
// user's paths, and each extra lobe is kept only if no user's SINR drops by
// more than tolDB — reliability improves (multiple lobes per user) while
// the multi-user interference structure is preserved. This realizes §8's
// "jointly use some spatial beams for enhancing reliability while others
// for improving multi-user coexistence".
func (a *Assignment) WithMultibeam(u *antenna.ULA, users []*channel.Model, budget link.Budget, tolDB float64) error {
	if len(a.PathIdx) != len(users) {
		return fmt.Errorf("hybrid: assignment/users mismatch")
	}
	baseline := sinrs(users, a.Weights, budget)
	for i, m := range users {
		ref := a.PathIdx[i]
		lobes := []multibeam.Beam{{Angle: m.Paths[ref].AoD, Amp: 1}}
		for k := range m.Paths {
			if k == ref {
				continue
			}
			d, s := m.RelativeGain(k, ref)
			cand := append(append([]multibeam.Beam(nil), lobes...),
				multibeam.Beam{Angle: m.Paths[k].AoD, Amp: d, Phase: s})
			w, err := multibeam.WeightsInto(u, cand, nil, nil)
			if err != nil {
				continue
			}
			prev := a.Weights[i]
			a.Weights[i] = w
			trial := sinrs(users, a.Weights, budget)
			ok := true
			for j := range trial {
				if trial[j] < baseline[j]-tolDB {
					ok = false
					break
				}
			}
			if ok {
				lobes = cand
				baseline = trial
			} else {
				a.Weights[i] = prev
			}
		}
	}
	a.SINRdB = sinrs(users, a.Weights, budget)
	a.SumRate = sumRate(a.SINRdB)
	return nil
}

// TDMRate returns the time-division baseline sum rate: each user served
// alone (full power, strongest single beam) for a 1/U share of the time.
func TDMRate(u *antenna.ULA, users []*channel.Model, budget link.Budget) (float64, error) {
	if len(users) == 0 {
		return 0, fmt.Errorf("hybrid: no users")
	}
	var sum float64
	for i, m := range users {
		k := m.StrongestPath()
		if k < 0 {
			return 0, fmt.Errorf("hybrid: user %d has no paths", i)
		}
		h := m.Effective(u.SingleBeam(m.Paths[k].AoD), 0)
		snr := budget.SNRdB(cmplx.Abs(h))
		sum += math.Log2(1+math.Pow(10, snr/10)) / float64(len(users))
	}
	return sum, nil
}
