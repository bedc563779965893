package station

import "mmreliable/internal/link"

// Counters is the station's aggregate accounting, exposed through
// mmstation output and the figure tables.
type Counters struct {
	// Frames is the number of scheduling frames executed.
	Frames int
	// SessionSlots is the total session·slot volume stepped (the capacity
	// denominator: SessionSlots / wall-clock = sessions·slots per second).
	SessionSlots int64
	// ProbesIssued is the total CSI-RS/SSB probes all sessions' sounders
	// fired, training sweeps included.
	ProbesIssued int
	// Grants is the number of probe tokens sessions actually consumed
	// (maintenance rounds + CC refreshes).
	Grants int
	// BudgetDenials counts sounding opportunities suppressed because the
	// session was out of tokens.
	BudgetDenials int
	// Preemptions counts blockage-emergency rounds that bypassed the
	// allowance and were charged to the next frame's budget.
	Preemptions int
	// Realigns is the total beam refinements (§4.2 re-alignment) across
	// sessions; Retrains the total full retrainings.
	Realigns int
	Retrains int
	// TrainingSlots is the total slots consumed by beam management.
	TrainingSlots int
	// BatchedEntryEvals is always 0: the frame-entry batch pass it counted
	// is gone. The field stays only because the repository benchmark
	// (perfbench) still reads it.
	BatchedEntryEvals int64
	// Admission-control outcomes.
	AttachesAdmitted int
	AttachesRejected int
	Detaches         int
	// SDMA planner outcomes (zero unless Chains ≥ 2).
	// SDMAGroups counts frames×groups committed with ≥2 members;
	// SDMAPairRejects counts candidates refused on angular separation or
	// the group-SINR re-check; SDMASlots is the total session·slots served
	// through the digital combiner.
	SDMAGroups      int
	SDMAPairRejects int
	SDMASlots       int64
}

// Add folds o into c, field by field.
func (c *Counters) Add(o Counters) {
	c.Frames += o.Frames
	c.SessionSlots += o.SessionSlots
	c.ProbesIssued += o.ProbesIssued
	c.Grants += o.Grants
	c.BudgetDenials += o.BudgetDenials
	c.Preemptions += o.Preemptions
	c.Realigns += o.Realigns
	c.Retrains += o.Retrains
	c.TrainingSlots += o.TrainingSlots
	c.BatchedEntryEvals += o.BatchedEntryEvals
	c.AttachesAdmitted += o.AttachesAdmitted
	c.AttachesRejected += o.AttachesRejected
	c.Detaches += o.Detaches
	c.SDMAGroups += o.SDMAGroups
	c.SDMAPairRejects += o.SDMAPairRejects
	c.SDMASlots += o.SDMASlots
}

// sessionTally is the part of one session's cumulative accounting that
// the station counters aggregate. The session-summed Counters fields are
// kept live by folding each session's per-frame tally delta in at the
// frame barrier (harvestFrame), so CountersSnapshot is O(1) and always
// equals Results().Counters.
type sessionTally struct {
	probes, grants, denials, preemptions int
	realigns, retrains, trainingSlots    int
	sdmaSlots                            int64
}

// tally reads the session's current cumulative accounting.
func (ss *Session) tally() sessionTally {
	return sessionTally{
		probes:        ss.mgr.ProbesUsed(),
		grants:        ss.grant.granted,
		denials:       ss.grant.denied,
		preemptions:   ss.grant.preempted,
		realigns:      ss.mgr.Refinements,
		retrains:      ss.mgr.Retrains,
		trainingSlots: ss.mgr.TrainingSlots,
		sdmaSlots:     ss.sdmaSlots,
	}
}

// addDelta folds the accounting accrued between tallies prev and cur.
func (c *Counters) addDelta(cur, prev sessionTally) {
	c.ProbesIssued += cur.probes - prev.probes
	c.Grants += cur.grants - prev.grants
	c.BudgetDenials += cur.denials - prev.denials
	c.Preemptions += cur.preemptions - prev.preemptions
	c.Realigns += cur.realigns - prev.realigns
	c.Retrains += cur.retrains - prev.retrains
	c.TrainingSlots += cur.trainingSlots - prev.trainingSlots
	c.SDMASlots += cur.sdmaSlots - prev.sdmaSlots
}

// UEResult is one session's outcome.
type UEResult struct {
	ID       int
	State    string // pending | active | detached | rejected
	AttachAt float64
	DetachAt float64 // 0 when still attached at the end
	Slots    int64
	Summary  link.Summary
	// Probe accounting.
	Probes        int // sounder probes issued (training included)
	Grants        int
	BudgetDenials int
	Preemptions   int
	Retrains      int
	Realigns      int
	TrainingSlots int
}

// Results is a deterministic snapshot of the station's outcome: per-UE
// results in session-id order plus the aggregate counters and summary
// statistics the capacity experiment plots.
type Results struct {
	PerUE    []UEResult
	Counters Counters
	// MeanReliability averages per-UE reliability over every session that
	// recorded at least one measured slot.
	MeanReliability float64
	// MedianSNRdB is the median of per-UE mean SNR over the same set.
	MedianSNRdB float64
	// MeanProbeSharePct is the mean per-UE share of all consumed grants,
	// in percent (100/N under perfect fairness).
	MeanProbeSharePct float64
	// MinMaxGrantRatio is min/max per-UE grants among measured sessions —
	// 1.0 under perfect fairness, 0 when some session got nothing.
	MinMaxGrantRatio float64
	// SumThroughputBps is the cell sum throughput: Σ per-UE mean
	// throughput over measured sessions — the e8 landmark's y-axis. Under
	// the shared-airtime model each UE's mean already includes its zeroed
	// non-owned slots, so the sum is the cell's aggregate delivered rate.
	SumThroughputBps float64
}

// Results snapshots the current outcome. Safe to call between frames.
func (st *Station) Results() Results {
	res := Results{Counters: st.counters}
	var (
		relSum   float64
		snrs     []float64
		measured int
		minG     = -1
		maxG     = 0
	)
	for _, ss := range st.sessions {
		ur := UEResult{
			ID:            ss.id,
			State:         ss.state.String(),
			AttachAt:      ss.attachAt,
			DetachAt:      ss.detachedAt,
			Slots:         ss.slotsRun,
			Summary:       ss.meter.Summarize(),
			Probes:        ss.mgr.ProbesUsed(),
			Grants:        ss.grant.granted,
			BudgetDenials: ss.grant.denied,
			Preemptions:   ss.grant.preempted,
			Retrains:      ss.mgr.Retrains,
			Realigns:      ss.mgr.Refinements,
			TrainingSlots: ss.mgr.TrainingSlots,
		}
		res.PerUE = append(res.PerUE, ur)
		if ss.meter.Slots() > 0 {
			measured++
			relSum += ur.Summary.Reliability
			res.SumThroughputBps += ur.Summary.MeanThroughput
			snrs = append(snrs, ur.Summary.MeanSNRdB)
			if minG < 0 || ur.Grants < minG {
				minG = ur.Grants
			}
			if ur.Grants > maxG {
				maxG = ur.Grants
			}
		}
	}
	if measured > 0 {
		res.MeanReliability = relSum / float64(measured)
		res.MedianSNRdB = median(snrs)
		if res.Counters.Grants > 0 {
			res.MeanProbeSharePct = 100.0 / float64(measured)
		}
		if maxG > 0 {
			res.MinMaxGrantRatio = float64(minG) / float64(maxG)
		}
	}
	return res
}

// median returns the median of vals, sorting in place (vals is a private
// snapshot copy).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	// Insertion sort: n is the session count, tiny.
	for i := 1; i < len(vals); i++ {
		v := vals[i]
		j := i
		for j > 0 && vals[j-1] > v {
			vals[j] = vals[j-1]
			j--
		}
		vals[j] = v
	}
	n := len(vals)
	if n%2 == 1 {
		return vals[n/2]
	}
	return 0.5 * (vals[n/2-1] + vals[n/2])
}
