package station

import (
	"mmreliable/internal/channel"
	"mmreliable/internal/incr"
	"mmreliable/internal/link"
)

// rxWeightsHead returns the identity of a model's UE combining vector (nil
// for quasi-omni). Composed UE weight vectors are always freshly allocated
// (see the manager's scratch invariants), so head+length identity implies
// unchanged content.
func rxWeightsHead(m *channel.Model) *complex128 {
	if len(m.RxWeights) == 0 {
		return nil
	}
	return &m.RxWeights[0]
}

// batchFrameEntry runs the frame-barrier planar batch pass: every
// grant-holding established session's active beam is evaluated over its
// manager's subcarrier grid in one channel.WidebandBatch sweep, and the
// resulting wideband SNR is snapshotted per session (entrySNR).
//
// This is the batched front door of the planar DSP backend (DESIGN.md
// "Planar DSP backend"): instead of interleaving per-UE wideband
// evaluations with slot bookkeeping, the coordinator gathers the whole
// frame's UEs and streams them through the planar kernels back-to-back, so
// the planar inner loops stay hot across sessions.
//
// Determinism: the pass runs on the coordinator between scheduleFrame and
// runSessions, when every worker is idle at the barrier, using st.ws[0]
// under a Mark/Release pair — session models are safe to touch and the
// workspace LIFO discipline holds. The snapshot feeds observability only
// (SessionFrameEntrySNRdB, Counters.BatchedEntryEvals), never scheduling
// or stepping, so output stays byte-identical at any worker count.
//
// Sessions whose budget bandwidth differs from the first batched session's
// are skipped for the frame (one grid per batch); their entrySNR simply
// stays stale. Steady state is allocation-free: registrations reuse the
// batch's high-water slices and the response slab lives in the workspace.
func (st *Station) batchFrameEntry() {
	st.batchIdx = st.batchIdx[:0]
	var fOffs []float64
	var bw float64
	var reused int64
	for i, ss := range st.active {
		if ss.grant.tokens <= 0 || !ss.mgr.Established() {
			continue
		}
		w := ss.mgr.ActiveWeightsView()
		if w == nil {
			continue
		}
		// Grid selection and bandwidth gating run BEFORE the reuse check so
		// the set of sessions updated this frame — and which session's grid
		// anchors the batch — is identical with the fast path on or off.
		if fOffs == nil {
			fOffs = ss.mgr.Offsets()
			bw = ss.budget.BandwidthHz
			st.batch.Reset(fOffs)
		} else if ss.budget.BandwidthHz != bw {
			continue
		}
		// Incremental skip: if every input of the row's eval is unchanged
		// since entrySNR was last computed — channel content stamp, front-end
		// program counter, UE combining weights — the eval would reproduce
		// entrySNR bit for bit. Renew the snapshot frame and charge the
		// counter as if evaluated, so observability is mode-invariant.
		if incr.Enabled && ss.entryValid &&
			ss.entryStamp == ss.model.Stamp() &&
			ss.entryFEVer == ss.mgr.WeightsVersion() &&
			ss.entryRxHead == rxWeightsHead(ss.model) &&
			ss.entryRxLen == len(ss.model.RxWeights) {
			ss.entrySNRFrame = st.frame
			reused++
			continue
		}
		st.batch.Add(ss.model, w)
		st.batchIdx = append(st.batchIdx, i)
	}
	st.counters.BatchedEntryEvals += reused
	if fOffs == nil || st.batch.Len() == 0 {
		return
	}
	ws := st.ws[0]
	mk := ws.Mark()
	st.batch.Eval(ws)
	for r, i := range st.batchIdx {
		ss := st.active[i]
		re, im := st.batch.Row(r)
		ss.entrySNR = link.WidebandSNRdBSplitTerms(re, im, ss.txLin, ss.noiseLin)
		ss.entrySNRFrame = st.frame
		ss.entryStamp = ss.model.Stamp()
		ss.entryFEVer = ss.mgr.WeightsVersion()
		ss.entryRxHead = rxWeightsHead(ss.model)
		ss.entryRxLen = len(ss.model.RxWeights)
		ss.entryValid = true
	}
	st.counters.BatchedEntryEvals += int64(st.batch.Len())
	ws.Release(mk)
}

// SessionFrameEntrySNRdB returns the session's most recent frame-entry
// wideband SNR snapshot and the frame it was taken at (−1 if the session
// has never been batched). Valid at the barrier, like SessionFrameSlots.
func (st *Station) SessionFrameEntrySNRdB(id int) (snrDB float64, frame int) {
	if id < 0 || id >= len(st.sessions) {
		return 0, -1
	}
	ss := st.sessions[id]
	return ss.entrySNR, ss.entrySNRFrame
}
