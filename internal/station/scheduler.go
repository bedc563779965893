package station

// The probe-budget scheduler. Runs single-threaded on the coordinator at
// every frame boundary, reading only per-session state published at the
// previous barrier — which is what makes the whole engine's output
// independent of the worker count.
//
// Policy: each established session that has a maintenance round due inside
// the frame "wants" a token. Sessions are ranked by
//
//	priority = staleness × (1 + SNR-drop) + AgingBoost × deniedFrames
//
// where staleness counts frames since the session's last granted
// maintenance, SNR-drop is the divergence of its slow/fast SNR EWMAs (a
// link sliding into blockage or misalignment rises in priority before it
// reaches outage), and deniedFrames is the starvation-aging term: a denied
// session's priority grows without bound, so no session starves under any
// load. A session that fired a blockage emergency last frame carries a
// preemption boost that puts it ahead of everything until its follow-up
// maintenance lands. Ties break toward the lower session id.
//
// Tokens: pass 1 hands one token to each wanting session in priority
// order until the budget runs out; pass 2 spreads leftover tokens (CC
// phase-refresh headroom) round-robin in the same order, capped at
// maxTokensPerFrame per session. Emergency probes bypass the allowance and
// are paid back by shrinking the next frame's budget (carryover), keeping
// the long-run probe rate at or below ProbeBudget per frame.

// scheduleFrame allocates the frame's probe tokens across active sessions.
// t1 is the frame's end time (exclusive): a session wants a maintenance
// token when its next round falls due before t1.
func (st *Station) scheduleFrame(t1 float64) {
	for _, ss := range st.active {
		ss.grant.tokens = 0
		ss.grant.reserveMaintain = false
		ss.grant.maintainGranted = false
		ss.wantedMaintain = false
	}
	if st.cfg.ProbeBudget <= 0 {
		// Arbitration disabled: every session self-schedules.
		for _, ss := range st.active {
			ss.grant.tokens = unlimitedTokens
		}
		return
	}
	budget := st.cfg.ProbeBudget - st.carryover
	st.carryover = 0
	if budget < 0 {
		// Emergency debt deeper than one frame's budget rolls forward.
		st.carryover = -budget
		budget = 0
	}
	// Rank established sessions. Sessions still in initial training or
	// retraining self-govern their sweep slots and take no tokens.
	n := 0
	for i, ss := range st.active {
		if !ss.mgr.Established() {
			continue
		}
		ss.wantedMaintain = ss.mgr.NextMaintainAt() < t1
		st.schedIdx[n] = i
		st.schedPrio[n] = st.priority(ss)
		n++
	}
	// Insertion sort, descending priority, ties toward the lower session
	// id (active order is admission order, which is id order, so the
	// stable insertion preserves the tiebreak). n is small and the slices
	// are preallocated — the frame loop stays off the allocator.
	for i := 1; i < n; i++ {
		idx, pr := st.schedIdx[i], st.schedPrio[i]
		j := i
		for j > 0 && st.schedPrio[j-1] < pr {
			st.schedIdx[j], st.schedPrio[j] = st.schedIdx[j-1], st.schedPrio[j-1]
			j--
		}
		st.schedIdx[j], st.schedPrio[j] = idx, pr
	}
	// Pass 1: one token per wanting session, best first.
	for i := 0; i < n && budget > 0; i++ {
		ss := st.active[st.schedIdx[i]]
		if ss.wantedMaintain {
			ss.grant.tokens++
			ss.grant.reserveMaintain = true
			budget--
		}
	}
	// Pass 2: leftover tokens become CC-refresh headroom, spread
	// round-robin in priority order.
	for budget > 0 {
		progressed := false
		for i := 0; i < n && budget > 0; i++ {
			ss := st.active[st.schedIdx[i]]
			if ss.grant.tokens < maxTokensPerFrame {
				ss.grant.tokens++
				budget--
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
}

// priority ranks one established session for this frame.
func (st *Station) priority(ss *Session) float64 {
	staleness := float64(st.frame - ss.lastGrantFrame)
	p := staleness*(1+ss.dropDB()) + st.cfg.AgingBoost*float64(ss.deniedFrames)
	if ss.preemptBoost {
		p += preemptBoostPriority
	}
	return p
}

// harvestFrame runs at the barrier after session stepping: it folds each
// session's frame outcome back into the scheduler state (staleness resets,
// starvation aging, emergency carryover and preemption boosts) and its
// accounting delta into the station counters.
func (st *Station) harvestFrame() {
	for _, ss := range st.active {
		cur := ss.tally()
		st.counters.addDelta(cur, ss.harvested)
		ss.harvested = cur
		gr := &ss.grant
		if d := gr.preempted - ss.lastPreempted; d > 0 {
			// Emergency rounds fired mid-frame: charge them to the next
			// frame's budget and keep the session boosted until a regular
			// maintenance grant confirms recovery.
			st.carryover += d
			ss.lastPreempted = gr.preempted
			ss.preemptBoost = true
			ss.lastGrantFrame = st.frame
			ss.deniedFrames = 0
			continue
		}
		if gr.maintainGranted {
			ss.lastGrantFrame = st.frame
			ss.deniedFrames = 0
			ss.preemptBoost = false
		} else if ss.wantedMaintain {
			ss.deniedFrames++
		}
	}
}
