package station

import "mmreliable/internal/sim"

// This file is the station's coordination surface for a multi-cell layer
// (internal/cluster): read-only views of per-session state published at the
// frame barrier, plus the two mutations a cluster coordinator needs —
// forced detach (session migration) and external probe charging (cluster
// monitoring probes debited against this cell's budget). Every function
// here must only be called between frames, from the goroutine that calls
// AdvanceFrame; none of them may run concurrently with runSessions.

// session returns the session with the given id (ids are the values
// returned by Attach). Panics on an unknown id — ids are produced by this
// station, so an out-of-range id is a caller bug, not an input error.
func (st *Station) session(id int) *Session {
	if id < 0 || id >= len(st.sessions) {
		panic("station: unknown session id")
	}
	return st.sessions[id]
}

// SessionActive reports whether the session is currently attached.
func (st *Station) SessionActive(id int) bool {
	return st.session(id).state == sessionActive
}

// SessionEstablished reports whether the session's manager currently
// transmits a trained multi-beam (false while acquiring or retraining) —
// the make-before-break gate: a cluster promotes a prepared backup session
// to serving only once it is established.
func (st *Station) SessionEstablished(id int) bool {
	return st.session(id).mgr.Established()
}

// SessionLastSNR returns the session's last per-slot SNR observation
// (clamped at the scheduler floor), as published at the frame barrier.
func (st *Station) SessionLastSNR(id int) float64 {
	return st.session(id).lastSNR
}

// SessionDropDB returns the scheduler's SNR-drop estimate for the session
// (slow-minus-fast EWMA divergence, ≥ 0) — the degradation signal a
// cluster's handover FSM watches.
func (st *Station) SessionDropDB(id int) float64 {
	return st.session(id).dropDB()
}

// SessionFrameSlots returns the session's per-slot outcomes for the frame
// that just ran (slot 0 first). Requires Config.KeepFrameSlots; returns
// nil for inactive sessions or when recording is disabled. The returned
// slice is the session's retained buffer — valid only until the next
// AdvanceFrame, never retain it.
func (st *Station) SessionFrameSlots(id int) []sim.Slot {
	ss := st.session(id)
	if ss.state != sessionActive {
		return nil
	}
	return ss.frameSlots
}

// DetachNow schedules the session for teardown at the next frame boundary
// (the cluster-side half of a completed handover: the old serving session
// is released after the new cell's session took over). Safe on pending
// sessions (they are admitted and immediately torn down) and idempotent on
// detached ones.
func (st *Station) DetachNow(id int) {
	st.session(id).detachNow = true
}

// ChargeExternalProbes debits n probes from the NEXT frame's budget — the
// same carryover mechanism emergency preemptions use — so cluster-level
// monitoring probes transmitted by this cell are paid for out of its own
// CSI-RS budget and the aggregate per-cell probe rate stays bounded by
// ProbeBudget per frame. A no-op under an unlimited budget.
func (st *Station) ChargeExternalProbes(n int) {
	if n > 0 && st.cfg.ProbeBudget > 0 {
		st.carryover += n
	}
}

// ProbeCarryover returns the probes already owed to the next frame's budget
// (emergency rounds and external charges not yet paid back).
func (st *Station) ProbeCarryover() int { return st.carryover }
