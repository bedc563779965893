package station

import (
	"fmt"

	"mmreliable/internal/core"
)

// This file is the station's service-layer surface: frame-boundary knob
// hot-reload and the state digest a daemon's snapshot verification folds.
// Like everything in hooks.go, these must only be called between frames,
// from the goroutine that calls AdvanceFrame.

// SetProbeBudget hot-reloads the per-frame probe grant budget (0 =
// unlimited). scheduleFrame reads the config fresh every frame, so the new
// budget takes effect at the next frame boundary.
func (st *Station) SetProbeBudget(n int) error {
	if n < 0 {
		return fmt.Errorf("station: ProbeBudget %d < 0", n)
	}
	st.cfg.ProbeBudget = n
	return nil
}

// SetAgingBoost hot-reloads the scheduler's starvation-aging gain.
func (st *Station) SetAgingBoost(b float64) error {
	if b < 0 {
		return fmt.Errorf("station: AgingBoost %g < 0", b)
	}
	st.cfg.AgingBoost = b
	return nil
}

// CountersSnapshot returns the aggregate counters by value — O(1), unlike
// Results which walks every session. The telemetry endpoint's primitive.
func (st *Station) CountersSnapshot() Counters { return st.counters }

// Digest folds the station's semantic state into d: frame clock, budget
// carryover, counters, and every session's lifecycle, scheduler, grant,
// meter, and manager state, in session-id order. All of it is
// frame-boundary state, so the fold is identical at any worker count.
func (st *Station) Digest(d *core.Digest) {
	d.Int(st.frame)
	d.Int(st.carryover)
	d.Int(st.cfg.ProbeBudget)
	d.Float64(st.cfg.AgingBoost)

	c := st.counters
	d.Int(c.Frames)
	d.Int64(c.SessionSlots)
	d.Int(c.ProbesIssued)
	d.Int(c.Grants)
	d.Int(c.BudgetDenials)
	d.Int(c.Preemptions)
	d.Int(c.Realigns)
	d.Int(c.Retrains)
	d.Int(c.TrainingSlots)
	d.Int(c.AttachesAdmitted)
	d.Int(c.AttachesRejected)
	d.Int(c.Detaches)
	d.Int(c.SDMAGroups)
	d.Int(c.SDMAPairRejects)

	d.Int(len(st.sessions))
	for _, ss := range st.sessions {
		d.Int(ss.id)
		d.Int(int(ss.state))
		d.Float64(ss.attachAt)
		d.Float64(ss.detachAt)
		d.Bool(ss.detachNow)
		d.Float64(ss.effectiveAttach)
		d.Float64(ss.detachedAt)
		d.Int64(ss.slotsRun)
		d.Float64(ss.lastSNR)
		d.Float64(ss.ewmaFast)
		d.Float64(ss.ewmaSlow)
		d.Bool(ss.haveEWMA)
		d.Int(ss.lastGrantFrame)
		d.Int(ss.deniedFrames)
		d.Bool(ss.preemptBoost)
		d.Int(ss.lastPreempted)
		d.Bool(ss.wantedMaintain)
		d.Int64(ss.sdmaSlots)
		d.Int(ss.grant.granted)
		d.Int(ss.grant.denied)
		d.Int(ss.grant.preempted)
		ss.meter.Digest(d)
		if ss.state == sessionActive {
			ss.mgr.Digest(d)
		}
	}
}
