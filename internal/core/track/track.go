// Package track implements mmReliable's proactive beam maintenance logic
// (§4.1–§4.2, §4.4): it watches the per-beam power time series produced by
// super-resolution, classifies power loss as blockage (fast) or mobility
// (gradual), and converts mobility losses into angular-deviation candidates
// by inverting the array's beam pattern. The direction ambiguity (±Δ gives
// the same power drop) is resolved by the manager with one trial probe.
package track

import (
	"fmt"

	"mmreliable/internal/antenna"
	"mmreliable/internal/dsp"
)

// Config tunes the tracker.
type Config struct {
	// DeviationDeadbandDB suppresses refinement for drops smaller than
	// this (measurement noise).
	DeviationDeadbandDB float64
}

// DefaultConfig returns the deadband matched to the paper's measurements.
func DefaultConfig() Config {
	return Config{DeviationDeadbandDB: 0.5}
}

// Tracking thresholds matched to the paper's measurements.
const (
	// smoothAlpha is the EWMA forgetting factor applied to per-beam power
	// in dB (the paper's "time average with a forgetting factor").
	smoothAlpha = 0.4
	// blockSlopeDBPerSec marks a blockage when power falls faster than
	// this. The measured human-blocker onset is ~10 dB per 10 OFDM symbols
	// ≈ 112,000 dB/s; anything within two orders of magnitude of that is
	// unambiguous against mobility (tens of dB/s).
	blockSlopeDBPerSec = 2000
	// blockDropDB marks a blockage when a single inter-observation drop
	// exceeds this many dB (backstop for sparse observations): a human
	// blocker produces ≥20 dB at the 20 ms maintenance cadence, while 4σ
	// fading jumps stay below this.
	blockDropDB = 8
	// unblockRiseDB clears the blocked flag when power recovers to within
	// this many dB of the anchor.
	unblockRiseDB = 3
	// historyLen is the number of recent observations kept for slope
	// estimation.
	historyLen = 8
)

// Status is the tracker's verdict for one beam after an observation.
type Status struct {
	// Blocked reports that the beam's path is occluded; its power should be
	// re-purposed to other beams rather than chased with re-alignment.
	Blocked bool
	// DropDB is the smoothed power loss relative to the anchor (positive =
	// loss).
	DropDB float64
	// Deviation is the estimated angular misalignment magnitude (radians)
	// explaining DropDB via the beam pattern; 0 when inside the deadband or
	// blocked. The sign is ambiguous: the true offset is ±Deviation.
	Deviation float64
}

type beamState struct {
	anchorDB float64
	ewma     *dsp.EWMA
	times    []float64
	powers   []float64 // smoothed dB history
	blocked  bool
}

// Tracker watches K beams.
type Tracker struct {
	u   *antenna.ULA
	cfg Config
	bs  []beamState
}

// New builds a tracker for the array u with initial per-beam powers
// (linear). Anchors are set to the initial powers.
func New(u *antenna.ULA, cfg Config, initPowers []float64) (*Tracker, error) {
	if len(initPowers) == 0 {
		return nil, fmt.Errorf("track: no beams")
	}
	tr := &Tracker{u: u, cfg: cfg, bs: make([]beamState, len(initPowers))}
	for k, p := range initPowers {
		if p <= 0 {
			return nil, fmt.Errorf("track: non-positive initial power on beam %d", k)
		}
		db := dsp.DB(p)
		tr.bs[k] = beamState{
			anchorDB: db,
			ewma:     dsp.NewEWMA(smoothAlpha),
			// Full-capacity history up front: observeBeam trims in place at
			// historyLen, so these never regrow — a tracker rebuilt on every
			// retrain would otherwise leak growth reallocations into the
			// pinned-zero-alloc steady state.
			times:  make([]float64, 0, historyLen+1),
			powers: make([]float64, 0, historyLen+1),
		}
		tr.bs[k].ewma.Update(db)
	}
	return tr, nil
}

// NumBeams returns the number of tracked beams.
func (tr *Tracker) NumBeams() int { return len(tr.bs) }

// Observe folds one per-beam power measurement (linear, from
// super-resolution) taken at time t into the tracker and returns the
// per-beam statuses.
func (tr *Tracker) Observe(t float64, powers []float64) ([]Status, error) {
	return tr.ObserveInto(nil, t, powers)
}

// ObserveInto is Observe writing the per-beam statuses into dst
// (allocated when nil or too short), so the maintenance tick can fold an
// observation without allocating. The powers slice is only read during
// the call — the tracker never retains it.
func (tr *Tracker) ObserveInto(dst []Status, t float64, powers []float64) ([]Status, error) {
	if len(powers) != len(tr.bs) {
		return nil, fmt.Errorf("track: %d powers for %d beams", len(powers), len(tr.bs))
	}
	if cap(dst) < len(powers) {
		dst = make([]Status, len(powers))
	}
	dst = dst[:len(powers)]
	for k := range powers {
		dst[k] = tr.observeBeam(k, t, powers[k])
	}
	return dst, nil
}

func (tr *Tracker) observeBeam(k int, t, power float64) Status {
	b := &tr.bs[k]
	db := -200.0 // floor for dead beams
	if power > 0 {
		db = dsp.DB(power)
	}
	rawPrev := b.ewma.Value()
	smooth := b.ewma.Update(db)
	b.times = append(b.times, t)
	b.powers = append(b.powers, smooth)
	if len(b.times) > historyLen {
		// Trim by copying down instead of re-slicing forward: the backing
		// arrays then stabilize at historyLen+1 and the appends above stop
		// allocating (the maintenance tick is pinned to zero allocations).
		copy(b.times, b.times[1:])
		b.times = b.times[:len(b.times)-1]
		copy(b.powers, b.powers[1:])
		b.powers = b.powers[:len(b.powers)-1]
	}
	drop := b.anchorDB - smooth

	// Blockage: a steep fall in the RAW (pre-smoothing) series — either an
	// instantaneous drop or a steep fitted slope over the recent window.
	instantDrop := rawPrev - db
	slope := tr.slopeDBPerSec(b)
	if !b.blocked {
		if instantDrop >= blockDropDB || -slope >= blockSlopeDBPerSec {
			b.blocked = true
		}
	} else if drop <= unblockRiseDB {
		b.blocked = false
	}

	st := Status{Blocked: b.blocked, DropDB: drop}
	if !b.blocked && drop > tr.cfg.DeviationDeadbandDB {
		// drop is a power ratio in dB; the array-factor inverse wants the
		// amplitude ratio 10^(−drop/20).
		st.Deviation = tr.u.InvertArrayFactor(dsp.AmpFromDB(-drop))
	}
	return st
}

// slopeDBPerSec fits a line to the recent smoothed history.
func (tr *Tracker) slopeDBPerSec(b *beamState) float64 {
	n := len(b.times)
	if n < 2 {
		return 0
	}
	dt := (b.times[n-1] - b.times[0]) / float64(n-1)
	if dt <= 0 {
		return 0
	}
	return dsp.SlopePerSample(b.powers) / dt
}

// Anchor re-references beam k to the given power (linear), typically after
// a successful re-alignment, so future drops are measured from the new
// optimum.
func (tr *Tracker) Anchor(k int, power float64) error {
	if k < 0 || k >= len(tr.bs) {
		return fmt.Errorf("track: beam %d out of range", k)
	}
	if power <= 0 {
		return fmt.Errorf("track: non-positive anchor power")
	}
	b := &tr.bs[k]
	b.anchorDB = dsp.DB(power)
	b.ewma.Reset()
	b.ewma.Update(b.anchorDB)
	b.times = b.times[:0]
	b.powers = b.powers[:0]
	b.blocked = false
	return nil
}

// Reanchor re-references every beam to the given powers (linear) in
// place — state-for-state equivalent to building a fresh tracker with New,
// but reusing the retained history storage so a re-anchoring maintenance
// round stays off the allocator. The beam count must match; use New when
// the beam set changes.
func (tr *Tracker) Reanchor(initPowers []float64) error {
	if len(initPowers) != len(tr.bs) {
		return fmt.Errorf("track: %d powers for %d beams", len(initPowers), len(tr.bs))
	}
	for k, p := range initPowers {
		if err := tr.Anchor(k, p); err != nil {
			return err
		}
	}
	return nil
}

// Candidates returns the two candidate re-alignment angles for a beam
// currently steered at angle with estimated deviation dev: the manager
// probes one; if SNR does not improve, the other is correct (§4.2).
func Candidates(angle, dev float64) (first, second float64) {
	return angle + dev, angle - dev
}

// RotationFromDrop estimates the common rotation angle of a directional UE
// from the drop (dB) in received power when only the UE end rotates
// (§4.4): it inverts the UE's own array factor.
func RotationFromDrop(ue *antenna.ULA, dropDB float64) float64 {
	if dropDB <= 0 {
		return 0
	}
	return ue.InvertArrayFactor(dsp.AmpFromDB(-dropDB))
}
