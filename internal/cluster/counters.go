package cluster

import (
	"mmreliable/internal/link"
	"mmreliable/internal/station"
)

// Counters is the cluster's aggregate accounting.
type Counters struct {
	// Frames is the number of cluster frames executed.
	Frames int
	// Handovers counts serving↔standby promotions; PingPongs the subset
	// that returned to the previous serving cell within the ping-pong
	// window (should be zero on a static channel — the hysteresis test).
	Handovers int
	PingPongs int
	// StandbyRetargets counts standby sessions torn down and re-pointed at
	// a stronger monitored cell (plus standbys opened late).
	StandbyRetargets int
	// MonitorRounds / MonitorProbes count wide-beam monitoring activity;
	// every probe is charged to the target cell's CSI-RS budget.
	MonitorRounds int
	MonitorProbes int
	// MonitorRowsReused counts monitor probes whose noiseless planar row was
	// replayed from the pair's cache instead of re-evaluated (incremental
	// engine only — 0 with MMR_INCREMENTAL=off). Diagnostic: deliberately
	// mode-VARIANT, so it must never feed stdout, /status or any decision.
	MonitorRowsReused int `json:"-"`
	// UE lifecycle.
	UEsAttached        int
	UEsFinished        int
	AdmissionDeferrals int
}

// Add folds o into c, field by field.
func (c *Counters) Add(o Counters) {
	c.Frames += o.Frames
	c.Handovers += o.Handovers
	c.PingPongs += o.PingPongs
	c.StandbyRetargets += o.StandbyRetargets
	c.MonitorRounds += o.MonitorRounds
	c.MonitorProbes += o.MonitorProbes
	c.MonitorRowsReused += o.MonitorRowsReused
	c.UEsAttached += o.UEsAttached
	c.UEsFinished += o.UEsFinished
	c.AdmissionDeferrals += o.AdmissionDeferrals
}

// UEOutcome is one UE's cluster-level result.
type UEOutcome struct {
	ID          int
	ServingCell int // final serving cell (−1 if never admitted)
	Handovers   int
	PingPongs   int
	// Serving is the serving-leg-only summary — what a handover-only
	// deployment delivers. Diversity adds per-slot selection combining
	// across the two live legs — the macro-diversity bound.
	Serving   link.Summary
	Diversity link.Summary
	// MaxOutageMs is the longest serving-leg outage episode in ms;
	// DivMaxOutageMs the same under selection combining.
	MaxOutageMs    float64
	DivMaxOutageMs float64
}

// Results is a deterministic snapshot of the cluster outcome.
type Results struct {
	PerUE    []UEOutcome
	PerCell  []station.Results
	Counters Counters
	// MeanServingReliability / MeanDiversityReliability average per-UE
	// reliability over every UE that recorded at least one measured slot.
	MeanServingReliability   float64
	MeanDiversityReliability float64
	// AggThroughputBps sums per-UE mean serving-leg throughput — the cell
	// cluster's carried load; AggDiversityThroughputBps the same under
	// selection combining.
	AggThroughputBps          float64
	AggDiversityThroughputBps float64
	// MaxOutageMs is the worst per-UE longest outage (serving leg) in ms;
	// DivMaxOutageMs the same under selection combining — the
	// handover-benefit headline (reliability alone hides blackout length).
	MaxOutageMs    float64
	DivMaxOutageMs float64
	// OverheadPct is the aggregate beam-management overhead across all
	// cells: training slots per session-slot, in percent — the §5
	// low-overhead bound, which must stay flat as cells and UEs grow.
	OverheadPct float64
}

// Results snapshots the current outcome. Safe to call between frames.
func (cl *Cluster) Results() Results {
	res := Results{Counters: cl.counters}
	var trainSlots, sessSlots int64
	for _, c := range cl.cells {
		sr := c.st.Results()
		res.PerCell = append(res.PerCell, sr)
		trainSlots += int64(sr.Counters.TrainingSlots)
		sessSlots += sr.Counters.SessionSlots
	}
	if sessSlots > 0 {
		res.OverheadPct = 100 * float64(trainSlots) / float64(sessSlots)
	}
	var relS, relD float64
	measured := 0
	for _, u := range cl.ues {
		out := cl.outcomeFor(u)
		if u.meter.Slots() > 0 {
			relS += out.Serving.Reliability
			relD += out.Diversity.Reliability
			res.AggThroughputBps += out.Serving.MeanThroughput
			res.AggDiversityThroughputBps += out.Diversity.MeanThroughput
			if out.MaxOutageMs > res.MaxOutageMs {
				res.MaxOutageMs = out.MaxOutageMs
			}
			if out.DivMaxOutageMs > res.DivMaxOutageMs {
				res.DivMaxOutageMs = out.DivMaxOutageMs
			}
			measured++
		}
		res.PerUE = append(res.PerUE, out)
	}
	if measured > 0 {
		res.MeanServingReliability = relS / float64(measured)
		res.MeanDiversityReliability = relD / float64(measured)
	}
	return res
}

// outcomeFor snapshots one resident UE's cluster-level result.
func (cl *Cluster) outcomeFor(u *ue) UEOutcome {
	out := UEOutcome{
		ID:          u.id,
		ServingCell: u.serving,
		Handovers:   u.handovers,
		PingPongs:   u.pingPongs,
	}
	if u.meter.Slots() > 0 {
		out.Serving = u.meter.Summarize()
		out.Diversity = u.divMeter.Summarize()
		out.MaxOutageMs = float64(u.meter.MaxOutageSlots()) * cl.slotDur * 1e3
		out.DivMaxOutageMs = float64(u.divMeter.MaxOutageSlots()) * cl.slotDur * 1e3
	}
	return out
}

// HarvestFinished removes every finished (detached) UE from the resident
// set, calling fn — if non-nil — with each one's outcome and its serving
// and diversity meters before the UE's state is released, in UE-id order.
// This is the metro layer's streaming-aggregation hook: a city-scale driver
// with session churn folds each departed UE into a constant-size sketch and
// lets the cluster's memory stay proportional to the RESIDENT population,
// not to every UE ever served. Cluster ids are never reused (see nextID),
// and the aggregate Counters keep counting harvested UEs; only the per-UE
// entries of Results shrink. Safe between frames.
func (cl *Cluster) HarvestFinished(fn func(UEOutcome, *link.Meter, *link.Meter)) int {
	kept := cl.ues[:0]
	harvested := 0
	for _, u := range cl.ues {
		if u.done {
			if fn != nil {
				fn(cl.outcomeFor(u), u.meter, u.divMeter)
			}
			harvested++
			continue
		}
		kept = append(kept, u)
	}
	for i := len(kept); i < len(cl.ues); i++ {
		cl.ues[i] = nil // release the harvested UE state
	}
	cl.ues = kept
	return harvested
}

// VisitUEs calls fn for every resident UE in UE-id order with its outcome
// and its serving and diversity meters. The meters are the cluster's live
// state: read-only for the callee (Meter.Merge reads its argument, so
// folding them into an aggregation sketch is fine). Safe between frames.
func (cl *Cluster) VisitUEs(fn func(UEOutcome, *link.Meter, *link.Meter)) {
	for _, u := range cl.ues {
		fn(cl.outcomeFor(u), u.meter, u.divMeter)
	}
}
