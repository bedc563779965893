package station

import (
	"math"

	"mmreliable/internal/hybrid"
	"mmreliable/internal/link"
	"mmreliable/internal/par"
	"mmreliable/internal/sim"
)

// This file extends the scheduler from "who gets probes" to "who shares a
// slot": the hybrid tier's SDMA planner. The cell has one airtime model:
// at every frame barrier the coordinator partitions the active sessions
// into scheduling units — each unit either a single session (TDMA) or,
// with Chains ≥ 2, a greedily-grown group of up to Chains
// angularly-separated sessions — and airtime rotates round-robin across
// units: slot k of frame f belongs to unit (f·spf+k) mod numUnits.
// Inside an owned slot a group runs the digital MMSE combiner and every
// member transmits simultaneously at SINR; a non-owned data slot records
// zero throughput (the airtime cost of sharing one radio). All planning
// reads only barrier-published per-session state, so the byte-identical
// at-any-worker-count contract is untouched.

// sdmaMaxChains bounds the per-slot group size (and the fixed-size
// planner/group scratch arrays).
const sdmaMaxChains = 8

// planFrameUnits rebuilds the frame's scheduling units. Coordinator-only,
// allocation-free: units and unitStore are capped at MaxSessions and every
// session appears in exactly one unit.
//
// Greedy policy, in active (admission) order: the first unassigned session
// leads a new unit; with Chains ≥ 2 and a tracked AoD on the lead, later
// unassigned sessions join if (a) they also track an AoD, (b) their link
// budget matches the lead's (one transmit power split cleanly), (c) their
// AoD clears MinSeparationDeg against EVERY current member, and (d) the
// whole candidate group — existing members included — re-checks above
// MinSINRdB under the pessimistic analog-leakage prediction. Sessions that
// fail (c) or (d) stay eligible to lead or join later units: TDMA is the
// fallback, never starvation.
func (st *Station) planFrameUnits() {
	st.units = st.units[:0]
	st.unitStore = st.unitStore[:0]
	n := len(st.active)
	for i := 0; i < n; i++ {
		st.sdmaAssigned[i] = false
	}
	minSep := st.cfg.SDMA.MinSeparationDeg * math.Pi / 180
	chains := st.cfg.SDMA.Chains
	for i := 0; i < n; i++ {
		if st.sdmaAssigned[i] {
			continue
		}
		base := len(st.unitStore)
		st.unitStore = append(st.unitStore, i)
		st.sdmaAssigned[i] = true
		lead := st.active[i]
		if chains >= 2 {
			if aod, ok := lead.mgr.TrackedAoD(); ok {
				var aods, snrs [sdmaMaxChains]float64
				aods[0], snrs[0] = aod, lead.lastSNR
				k := 1
				for j := i + 1; j < n && k < chains; j++ {
					if st.sdmaAssigned[j] {
						continue
					}
					cand := st.active[j]
					caod, ok := cand.mgr.TrackedAoD()
					if !ok || cand.budget != lead.budget {
						continue
					}
					sepOK := true
					for m := 0; m < k; m++ {
						if hybrid.AngularGap(aods[m], caod) < minSep {
							sepOK = false
							break
						}
					}
					if !sepOK {
						st.counters.SDMAPairRejects++
						continue
					}
					aods[k], snrs[k] = caod, cand.lastSNR
					groupOK := true
					for m := 0; m <= k; m++ {
						if hybrid.PredictSINRdB(lead.sc.TxArray, aods[:k+1], snrs[:k+1], m) < st.cfg.SDMA.MinSINRdB {
							groupOK = false
							break
						}
					}
					if !groupOK {
						st.counters.SDMAPairRejects++
						continue
					}
					st.unitStore = append(st.unitStore, j)
					st.sdmaAssigned[j] = true
					k++
				}
				if k >= 2 {
					st.counters.SDMAGroups++
				}
			}
		}
		st.units = append(st.units, st.unitStore[base:len(st.unitStore)])
	}
}

// runSessions steps every scheduling unit planned for the frame starting at
// st.frameT0 through par.For. Workers claim whole units (a group's members
// must step in lockstep within a slot). Which worker runs which unit is
// scheduling-dependent but irrelevant to the output: a unit's entire world
// is unit-private, and the per-worker scratch arenas and combiners hand out
// zeroed checkouts, so a unit computes bit-identical results on any worker.
// For's return publishes all session state back to the coordinator.
func (st *Station) runSessions() {
	par.For(st.workers, len(st.units), st.runUnitFn)
}

// combiner returns worker k's digital stage, nil when Chains = 1 (units
// never have two members, so nothing combines).
func (st *Station) combiner(k int) *hybrid.Combiner {
	if st.combiners == nil {
		return nil
	}
	return st.combiners[k]
}

// runUnit steps scheduling unit unitIdx through the frame starting at
// st.frameT0, on the given worker's scratch arena and combiner; everything
// else it touches is unit-private. All members' managers advance every
// slot (training cadences, tracking, and channel evolution are
// airtime-independent); data slots the unit does not own record zero
// throughput, and in an owned slot two or more established, non-training
// members transmit simultaneously through the digital MMSE combiner and
// their slot outcome is rewritten to SINR-driven throughput. A one-member
// unit never combines: it is a TDMA session. The scheduler's SNR-drop
// estimator always sees the own-beam SNR, never the SINR — probe
// arbitration stays a per-link concern.
func (st *Station) runUnit(worker, unitIdx int) {
	unit, t0 := st.units[unitIdx], st.frameT0
	ws, cb := st.ws[worker], st.combiner(worker)
	ws.Reset()
	numUnits := len(st.units)
	var mem [sdmaMaxChains]*Session
	var warmupEnd, ownSNR [sdmaMaxChains]float64
	var slots [sdmaMaxChains]sim.Slot
	var ntIdx [sdmaMaxChains]int
	members := mem[:len(unit)]
	for m, idx := range unit {
		ss := st.active[idx]
		ss.mgr.UseWorkspace(ws)
		if ss.frameSlots != nil {
			ss.frameSlots = ss.frameSlots[:0]
		}
		members[m] = ss
		warmupEnd[m] = ss.effectiveAttach + st.cfg.Warmup
	}
	// owner is the unit owning slot k: (frame·spf + k) mod numUnits,
	// advanced one unit per slot.
	owner := st.frame * st.slotsPerFrame % numUnits
	for k := 0; k < st.slotsPerFrame; k++ {
		t := t0 + float64(k)*st.slotDur
		for m, ss := range members {
			ss.sc.ChannelInto(t, ss.model)
			slots[m] = ss.mgr.Step(t, ss.model)
			ownSNR[m] = slots[m].SNRdB
		}
		switch {
		case owner != unitIdx:
			for m := range members {
				if !slots[m].Training {
					slots[m].ThroughputBps = 0
				}
			}
		case len(members) >= 2:
			nt := 0
			for m, ss := range members {
				if !slots[m].Training && ss.mgr.ActiveWeightsView() != nil {
					ntIdx[nt] = m
					nt++
				}
			}
			if nt >= 2 {
				combineSlot(members, ntIdx[:nt], slots[:len(members)], cb)
			}
			// nt ≤ 1: degenerate share (members training or unestablished);
			// whoever has a beam keeps its single-user slot as-is.
		}
		for m, ss := range members {
			if ss.frameSlots != nil {
				ss.frameSlots = append(ss.frameSlots, slots[m])
			}
			if t >= warmupEnd[m] {
				ss.meter.Record(slots[m].SNRdB, slots[m].Training, slots[m].ThroughputBps)
			}
			ss.observe(ownSNR[m])
			ss.slotsRun++
		}
		if owner++; owner == numUnits {
			owner = 0
		}
	}
}

// combineSlot runs the digital MMSE stage for the nt co-transmitting
// members (indices ntIdx into members/slots) of one owned slot, rewriting
// their slot outcomes to SINR-driven throughput. On a degenerate channel
// (Solve failure) the members keep their single-user outcomes — the slot
// silently falls back to the analog tier.
func combineSlot(members []*Session, ntIdx []int, slots []sim.Slot, cb *hybrid.Combiner) {
	nt := len(ntIdx)
	if err := cb.Begin(nt); err != nil {
		return
	}
	lead := members[ntIdx[0]]
	offs := lead.mgr.Offsets()
	for a := 0; a < nt; a++ {
		sa := members[ntIdx[a]]
		for b := 0; b < nt; b++ {
			sb := members[ntIdx[b]]
			re, im := cb.Entry(a, b)
			sa.model.EffectiveWidebandSplitInto(sb.mgr.ActiveWeightsView(), offs, re, im)
		}
	}
	if err := cb.Solve(lead.txLin, lead.noiseLin); err != nil {
		return
	}
	for a := 0; a < nt; a++ {
		m := ntIdx[a]
		ss := members[m]
		sinr := cb.UserSINRdB(a, ss.txLin, ss.noiseLin)
		slots[m].SNRdB = sinr
		slots[m].ThroughputBps = link.Throughput(sinr, ss.budget.BandwidthHz, 0)
		ss.sdmaSlots++
	}
}
