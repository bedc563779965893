package manager

import (
	"slices"

	"mmreliable/internal/core"
)

// Digest folds the manager's semantic state into d: the published beam
// geometry and weights, the scheduling clocks, the blockage/maintenance
// FSM, the tracker, and the cumulative stats. Scratch buffers and caches
// are deliberately excluded — they are recomputed, never decisions.
// Two managers that fold equal produce identical slot streams from here
// on, at any worker count (the digest reads only frame-boundary state).
func (g *Manager) Digest(d *core.Digest) {
	// Beam state.
	d.Floats(g.angles)
	d.Floats(g.relDelays)
	d.Int(len(g.beams))
	for _, b := range g.beams {
		d.Float64(b.Angle)
		d.Float64(b.Amp)
		d.Float64(b.Phase)
	}
	d.Bools(g.active)
	d.Floats(g.rssAnchor)
	d.Int(len(g.w))
	for _, c := range g.w {
		d.Complex(c)
	}
	d.Bool(g.needAnch)
	if g.tracker != nil {
		g.tracker.Digest(d)
	} else {
		d.Int(-1)
	}

	// Directional-UE state.
	d.Int(len(g.ueW))
	for _, c := range g.ueW {
		d.Complex(c)
	}
	d.Floats(g.ueAngles)
	d.Floats(g.ueAmps)

	// Operation scheduling.
	d.Int(g.trainRemaining)
	d.Bool(g.onTrainDone != nil)
	d.Float64(g.nextMaintain)
	d.Float64(g.nextCCRefresh)
	d.Bool(g.emergencyTried)
	d.Int(g.badSlots)
	d.Float64(g.trainDebt)

	// Cumulative accounting (sounder probes included — the probe stream's
	// position is part of what must replay identically).
	d.Int(g.sounder.Probes)
	d.Int(g.TrainingSlots)
	d.Int(g.Retrains)
	d.Int(g.Refinements)
	d.Int(g.BlockageDrops)
	d.Int(g.BudgetDenials)
	d.Int(len(g.RetrainReasons))
	var buf [16]string // room for every cause (8 today), so the fold stays off the heap
	keys := buf[:0]
	for k := range g.RetrainReasons {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		d.Int(len(k))
		for _, r := range k {
			d.Int64(int64(r))
		}
		d.Int(g.RetrainReasons[k])
	}
}
