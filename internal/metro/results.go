package metro

import (
	"fmt"
	"io"

	"mmreliable/internal/cluster"
	"mmreliable/internal/link"
)

// ShardSummary is one shard's reduced outcome: its sketch (finished UEs
// streamed out during the run, plus the UEs still resident at Results
// time) as plain values.
type ShardSummary struct {
	Sites     int
	UEs       int // UE-sessions folded (finished + resident)
	Measured  int // subset with at least one post-warmup slot
	Slots     int // total measured slots across folded UEs
	Serving   link.Summary
	Diversity link.Summary
	RelHist   [RelBins]int
	Handovers int
	PingPongs int
	// WorstOutageMs / DivWorstOutageMs: longest single outage episode any
	// folded UE saw, in ms.
	WorstOutageMs    float64
	DivWorstOutageMs float64
}

// Results is the deterministic metro outcome: pure values (comparable with
// reflect.DeepEqual), byte-identical at any worker count for a fixed shard
// partition.
type Results struct {
	Frames      int
	Sites       int
	Cells       int
	ResidentUEs int

	// Metro-wide aggregate: every folded UE's slot stream concatenated in
	// (shard, site, UE) order.
	UEs       int
	Measured  int
	Slots     int
	Serving   link.Summary
	Diversity link.Summary
	RelHist   [RelBins]int
	Handovers int
	PingPongs int

	WorstOutageMs    float64
	DivWorstOutageMs float64

	// Counters sums every site's cluster counters.
	Counters cluster.Counters
	// OverheadPct is beam-management overhead across every cell in the
	// city: training slots per session slot, percent. The §5 story at metro
	// scale: it must stay flat as sites multiply.
	OverheadPct float64

	PerShard []ShardSummary
}

// Results reduces the city: per shard, a clone of the live sketch absorbs
// the shard's still-resident UEs (so the live sketches are never
// perturbed and Results is repeatable mid-run), then shards fold into the
// metro totals in index order. The walk is entirely on the caller's
// goroutine — determinism needs no cooperation from the pool. Safe between
// frames.
func (m *Metro) Results() Results {
	res := Results{
		Frames: m.frame,
		Sites:  len(m.sites),
		Cells:  m.Cells(),
	}
	var total Sketch
	var trainSlots, sessSlots int64
	for s := 0; s < m.Shards(); s++ {
		sk := m.sketches[s].Clone()
		lo, hi := m.shardLo[s], m.shardLo[s+1]
		for _, st := range m.sites[lo:hi] {
			st.cl.VisitUEs(sk.AddUE)
			res.ResidentUEs += st.cl.ResidentUEs()
			cr := st.cl.Results()
			res.Counters.Add(cr.Counters)
			for _, pc := range cr.PerCell {
				trainSlots += int64(pc.Counters.TrainingSlots)
				sessSlots += pc.Counters.SessionSlots
			}
		}
		res.PerShard = append(res.PerShard, ShardSummary{
			Sites:            hi - lo,
			UEs:              sk.UEs,
			Measured:         sk.Measured,
			Slots:            sk.Slots(),
			Serving:          sk.Serving(),
			Diversity:        sk.Diversity(),
			RelHist:          sk.RelHist,
			Handovers:        sk.Handovers,
			PingPongs:        sk.PingPongs,
			WorstOutageMs:    sk.WorstOutageMs,
			DivWorstOutageMs: sk.DivWorstOutageMs,
		})
		total.Merge(&sk)
	}
	res.UEs = total.UEs
	res.Measured = total.Measured
	res.Slots = total.Slots()
	res.Serving = total.Serving()
	res.Diversity = total.Diversity()
	res.RelHist = total.RelHist
	res.Handovers = total.Handovers
	res.PingPongs = total.PingPongs
	res.WorstOutageMs = total.WorstOutageMs
	res.DivWorstOutageMs = total.DivWorstOutageMs
	if sessSlots > 0 {
		res.OverheadPct = 100 * float64(trainSlots) / float64(sessSlots)
	}
	return res
}

// Write renders the results as a deterministic text report (fixed field
// set, %v float formatting — shortest round-trip representation, so two
// byte-identical Results render to byte-identical reports; the CI
// determinism diff relies on this).
func (r Results) Write(w io.Writer) {
	fmt.Fprintf(w, "metro: %d sites / %d cells, %d frames, %d UE-sessions (%d measured, %d resident)\n",
		r.Sites, r.Cells, r.Frames, r.UEs, r.Measured, r.ResidentUEs)
	fmt.Fprintf(w, "serving:   rel=%v thr=%v bps slots=%v worstOutage=%v ms\n",
		r.Serving.Reliability, r.Serving.MeanThroughput, r.Slots, r.WorstOutageMs)
	fmt.Fprintf(w, "diversity: rel=%v thr=%v bps worstOutage=%v ms\n",
		r.Diversity.Reliability, r.Diversity.MeanThroughput, r.DivWorstOutageMs)
	fmt.Fprintf(w, "handovers=%d pingpongs=%d retargets=%d probes=%d deferrals=%d overhead=%v%%\n",
		r.Handovers, r.PingPongs, r.Counters.StandbyRetargets,
		r.Counters.MonitorProbes, r.Counters.AdmissionDeferrals, r.OverheadPct)
	fmt.Fprintf(w, "relhist=%v\n", r.RelHist)
	for i, s := range r.PerShard {
		fmt.Fprintf(w, "shard %02d: sites=%d ues=%d slots=%d rel=%v thr=%v ho=%d\n",
			i, s.Sites, s.UEs, s.Slots, s.Serving.Reliability, s.Serving.MeanThroughput, s.Handovers)
	}
}
