package cluster

import (
	"fmt"

	"mmreliable/internal/core"
	"mmreliable/internal/events"
	"mmreliable/internal/station"
)

// This file is the cluster's service-layer surface: live event injection,
// frame-boundary knob hot-reload, O(1) telemetry reads, and the state
// digest the daemon's snapshot verification folds. Everything here must
// only be called between frames, from the goroutine that calls
// AdvanceFrame (the same contract as station/hooks.go).

// findUE returns the resident UE with the given id, or nil.
func (cl *Cluster) findUE(id int) *ue {
	for _, u := range cl.ues {
		if u.id == id {
			return u
		}
	}
	return nil
}

// InjectBlockage schedules a live blockage event on the (ue, cell) link
// starting at the current frame boundary: depth dB across all paths for
// durationS seconds, with the standard ramp. cell −1 resolves to the UE's
// current serving cell. Returns the resolved cell index.
func (cl *Cluster) InjectBlockage(ueID, cell int, depthDB, durationS float64) (int, error) {
	u := cl.findUE(ueID)
	if u == nil {
		return 0, fmt.Errorf("cluster: unknown UE %d", ueID)
	}
	if u.done {
		return 0, fmt.Errorf("cluster: UE %d already finished", ueID)
	}
	if depthDB <= 0 || durationS <= 0 {
		return 0, fmt.Errorf("cluster: blockage needs positive depth and duration (got %g dB, %g s)", depthDB, durationS)
	}
	if cell < 0 {
		if u.serving < 0 {
			return 0, fmt.Errorf("cluster: UE %d has no serving cell to target", ueID)
		}
		cell = u.serving
	}
	if cell >= len(cl.cells) {
		return 0, fmt.Errorf("cluster: cell %d outside [0,%d)", cell, len(cl.cells))
	}
	sc := u.scen[cell]
	sc.Blockage = append(sc.Blockage, events.Event{
		AllPaths: true,
		Start:    cl.Now(),
		Duration: durationS,
		DepthDB:  depthDB,
		RampTime: events.RampFor(depthDB),
	})
	return cell, nil
}

// DetachUE schedules a resident UE's departure at this frame boundary: an
// attached UE's legs tear down and its metrics freeze when the next frame
// runs, exactly like a scheduled DetachAt. A UE whose admission has not
// been tried yet (say, attached at this same boundary) holds the detach
// until it is admitted and leaves at the first boundary after that, so the
// outcome depends only on the boundary the detach applied at — a journal
// replays it identically — and every departed UE was counted as attached
// first (if that admission is deferred, the detach stays held). A UE whose
// admission was already deferred because every cell is full is refused: it
// stays queued for admission.
func (cl *Cluster) DetachUE(ueID int) error {
	u := cl.findUE(ueID)
	if u == nil {
		return fmt.Errorf("cluster: unknown UE %d", ueID)
	}
	if u.done {
		return fmt.Errorf("cluster: UE %d already finished", ueID)
	}
	if !u.attached && u.deferred {
		return fmt.Errorf("cluster: UE %d awaiting admission (every cell full)", ueID)
	}
	u.detachNow = true
	return nil
}

// Tuning is the hot-reloadable knob set: nil fields keep their current
// value. Validation is atomic — an invalid field rejects the whole update.
type Tuning struct {
	// Station scheduler knobs (applied to every member cell).
	ProbeBudget *int     `json:"probe_budget,omitempty"`
	AgingBoost  *float64 `json:"aging_boost,omitempty"`
	// Cluster monitoring / handover-FSM knobs.
	MonitorEvery     *int     `json:"monitor_every,omitempty"`
	HysteresisDB     *float64 `json:"hysteresis_db,omitempty"`
	DropTriggerDB    *float64 `json:"drop_trigger_db,omitempty"`
	TimeToTrigger    *int     `json:"time_to_trigger,omitempty"`
	MinStayFrames    *int     `json:"min_stay_frames,omitempty"`
	RetargetMarginDB *float64 `json:"retarget_margin_db,omitempty"`
}

// Validate checks every set field against the same rules New enforces.
func (t Tuning) Validate() error {
	if t.ProbeBudget != nil && *t.ProbeBudget < 0 {
		return fmt.Errorf("cluster: ProbeBudget %d < 0", *t.ProbeBudget)
	}
	if t.AgingBoost != nil && *t.AgingBoost < 0 {
		return fmt.Errorf("cluster: AgingBoost %g < 0", *t.AgingBoost)
	}
	if t.MonitorEvery != nil && *t.MonitorEvery < 1 {
		return fmt.Errorf("cluster: MonitorEvery %d < 1", *t.MonitorEvery)
	}
	if t.HysteresisDB != nil && *t.HysteresisDB < 0 {
		return fmt.Errorf("cluster: HysteresisDB %g < 0", *t.HysteresisDB)
	}
	if t.DropTriggerDB != nil && *t.DropTriggerDB < 0 {
		return fmt.Errorf("cluster: DropTriggerDB %g < 0", *t.DropTriggerDB)
	}
	if t.TimeToTrigger != nil && *t.TimeToTrigger < 1 {
		return fmt.Errorf("cluster: TimeToTrigger %d < 1", *t.TimeToTrigger)
	}
	if t.MinStayFrames != nil && *t.MinStayFrames < 0 {
		return fmt.Errorf("cluster: MinStayFrames %d < 0", *t.MinStayFrames)
	}
	if t.RetargetMarginDB != nil && *t.RetargetMarginDB < 0 {
		return fmt.Errorf("cluster: RetargetMarginDB %g < 0", *t.RetargetMarginDB)
	}
	return nil
}

// ApplyTuning hot-reloads the set fields at this frame boundary. The next
// frame runs under the new knobs; nothing retroactive changes.
func (cl *Cluster) ApplyTuning(t Tuning) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if t.ProbeBudget != nil {
		cl.cfg.Station.ProbeBudget = *t.ProbeBudget
		for _, c := range cl.cells {
			if err := c.st.SetProbeBudget(*t.ProbeBudget); err != nil {
				return err
			}
		}
	}
	if t.AgingBoost != nil {
		cl.cfg.Station.AgingBoost = *t.AgingBoost
		for _, c := range cl.cells {
			if err := c.st.SetAgingBoost(*t.AgingBoost); err != nil {
				return err
			}
		}
	}
	if t.MonitorEvery != nil {
		cl.cfg.MonitorEvery = *t.MonitorEvery
	}
	if t.HysteresisDB != nil {
		cl.cfg.HysteresisDB = *t.HysteresisDB
	}
	if t.DropTriggerDB != nil {
		cl.cfg.DropTriggerDB = *t.DropTriggerDB
	}
	if t.TimeToTrigger != nil {
		cl.cfg.TimeToTrigger = *t.TimeToTrigger
	}
	if t.MinStayFrames != nil {
		cl.cfg.MinStayFrames = *t.MinStayFrames
	}
	if t.RetargetMarginDB != nil {
		cl.cfg.RetargetMarginDB = *t.RetargetMarginDB
	}
	return nil
}

// ActiveSessions returns the total station sessions currently attached
// across member cells — O(cells).
func (cl *Cluster) ActiveSessions() int {
	n := 0
	for _, c := range cl.cells {
		n += c.st.ActiveSessions()
	}
	return n
}

// CountersSnapshot returns the aggregate cluster counters by value — O(1).
func (cl *Cluster) CountersSnapshot() Counters { return cl.counters }

// CellCounters returns cell c's station counters by value — O(1).
func (cl *Cluster) CellCounters(c int) station.Counters {
	return cl.cells[c].st.CountersSnapshot()
}

// Digest folds the cluster's semantic state into d: frame clock, tunables,
// counters, every member station, and every resident UE's lifecycle, FSM,
// monitor estimates, and meters, in cell then UE-id order. The fold reads
// only frame-boundary state, so it is identical at any worker count — and
// it deliberately excludes the incremental engine's caches and the
// mode-variant MonitorRowsReused counter, so the digest also matches
// between MMR_INCREMENTAL modes.
func (cl *Cluster) Digest(d *core.Digest) {
	d.Int(cl.frame)
	d.Int(cl.nextID)
	d.Int(cl.cfg.MonitorEvery)
	d.Float64(cl.cfg.HysteresisDB)
	d.Float64(cl.cfg.DropTriggerDB)
	d.Int(cl.cfg.TimeToTrigger)
	d.Int(cl.cfg.MinStayFrames)
	d.Float64(cl.cfg.RetargetMarginDB)

	c := cl.counters
	d.Int(c.Frames)
	d.Int(c.Handovers)
	d.Int(c.PingPongs)
	d.Int(c.StandbyRetargets)
	d.Int(c.MonitorRounds)
	d.Int(c.MonitorProbes)
	d.Int(c.UEsAttached)
	d.Int(c.UEsFinished)
	d.Int(c.AdmissionDeferrals)

	d.Int(len(cl.cells))
	for _, cell := range cl.cells {
		cell.st.Digest(d)
	}

	d.Int(len(cl.ues))
	for _, u := range cl.ues {
		d.Int(u.id)
		d.Bool(u.attached)
		d.Bool(u.done)
		d.Float64(u.effectiveAttach)
		d.Int(u.serving)
		d.Int(u.standby)
		d.Int(u.ttt)
		d.Int(u.lastSwapFrame)
		d.Int(u.prevServing)
		d.Int(u.handovers)
		d.Int(u.pingPongs)
		d.Int(len(u.sess))
		for _, id := range u.sess {
			d.Int(id)
		}
		d.Floats(u.monEst)
		d.Bools(u.monSeen)
		for _, sc := range u.scen {
			d.Int(len(sc.Blockage))
		}
		u.meter.Digest(d)
		u.divMeter.Digest(d)
	}
}
