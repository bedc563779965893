package serve

import (
	"bytes"
	"fmt"
	"strconv"
)

// metricsText renders the Prometheus text exposition (format 0.0.4) from
// the view's O(sites) aggregates only: summed cluster counters, summed
// station counters, and the O(shards) sketch merge of harvested UEs. No
// per-UE or per-session walk happens here or in the capture behind it — a
// scrape costs the same whether the city has served a hundred UE-sessions
// or a hundred thousand.
func (v *view) metricsText() string {
	var b bytes.Buffer
	gauge := func(name, help string, x float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
			name, help, name, name, strconv.FormatFloat(x, 'g', -1, 64))
	}
	counter := func(name, help string, x float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %s\n",
			name, help, name, name, strconv.FormatFloat(x, 'g', -1, 64))
	}
	// bySite appends one site-labeled series per cluster site to the family
	// whose header the preceding gauge/counter call just wrote. Sites render
	// in index order, from the per-site aggregates the metro maintains
	// alongside its shard sketches, so the whole exposition stays O(sites)
	// and byte-identical at any worker count.
	bySite := func(name string, val func(sv siteView) float64) {
		for i, sv := range v.site {
			fmt.Fprintf(&b, "%s{site=\"%d\"} %s\n",
				name, i, strconv.FormatFloat(val(sv), 'g', -1, 64))
		}
	}

	gauge("mmserved_frame", "Next metro frame index.", float64(v.st.Frame))
	gauge("mmserved_sim_seconds", "Simulated time at the last boundary.", v.st.SimTimeS)
	gauge("mmserved_sites", "Cluster sites in the city.", float64(v.st.Sites))
	gauge("mmserved_cells", "Total gNB cells.", float64(v.st.Cells))
	gauge("mmserved_resident_ues", "UEs currently resident.", float64(v.st.ResidentUEs))
	gauge("mmserved_active_sessions", "Attached station sessions.", float64(v.st.ActiveSessions))
	bySite("mmserved_active_sessions", func(sv siteView) float64 { return float64(sv.activeSessions) })
	gauge("mmserved_journal_commands", "External commands applied and journaled.", float64(v.st.JournalLen))
	gauge("mmserved_script_errors", "Scripted commands that failed to apply.", float64(v.scriptErrs))

	cc := v.st.Counters
	counter("mmserved_handovers_total", "Serving-standby promotions.", float64(cc.Handovers))
	counter("mmserved_pingpongs_total", "Handovers returning within the ping-pong window.", float64(cc.PingPongs))
	counter("mmserved_standby_retargets_total", "Standby legs re-pointed at stronger cells.", float64(cc.StandbyRetargets))
	counter("mmserved_monitor_rounds_total", "Wide-beam monitor rounds.", float64(cc.MonitorRounds))
	counter("mmserved_monitor_probes_total", "Wide-beam monitor probes.", float64(cc.MonitorProbes))
	counter("mmserved_ues_attached_total", "UE admissions.", float64(cc.UEsAttached))
	counter("mmserved_ues_finished_total", "UE departures.", float64(cc.UEsFinished))
	counter("mmserved_admission_deferrals_total", "Arrivals deferred to a later boundary.", float64(cc.AdmissionDeferrals))

	sc := v.station
	counter("mmserved_session_slots_total", "Session-slots stepped.", float64(sc.SessionSlots))
	counter("mmserved_probes_issued_total", "Sounder probes fired.", float64(sc.ProbesIssued))
	counter("mmserved_grants_total", "Probe tokens consumed.", float64(sc.Grants))
	counter("mmserved_budget_denials_total", "Sounding opportunities denied by budget.", float64(sc.BudgetDenials))
	counter("mmserved_preemptions_total", "Emergency rounds charged to the next frame.", float64(sc.Preemptions))
	counter("mmserved_realigns_total", "Beam refinements.", float64(sc.Realigns))
	counter("mmserved_retrains_total", "Full retrainings.", float64(sc.Retrains))
	counter("mmserved_training_slots_total", "Slots consumed by beam management.", float64(sc.TrainingSlots))

	counter("mmserved_harvested_ues_total", "Finished UE-sessions folded into the sketches.", float64(v.st.HarvestedUEs))
	bySite("mmserved_harvested_ues_total", func(sv siteView) float64 { return float64(sv.harvestedUEs) })
	counter("mmserved_harvested_measured_total", "Harvested UEs with at least one measured slot.", float64(v.harvestedMeasured))
	gauge("mmserved_harvested_serving_reliability", "Serving-leg reliability over harvested UEs.", v.st.HarvestedServing.Reliability)
	bySite("mmserved_harvested_serving_reliability", func(sv siteView) float64 { return sv.servingRel })
	gauge("mmserved_harvested_diversity_reliability", "Selection-diversity reliability over harvested UEs.", v.diversityRel)
	bySite("mmserved_harvested_diversity_reliability", func(sv siteView) float64 { return sv.diversityRel })
	gauge("mmserved_harvested_serving_throughput_bps", "Mean serving-leg throughput over harvested UEs.", v.st.HarvestedServing.MeanThroughput)
	gauge("mmserved_worst_outage_ms", "Longest single outage episode any harvested UE saw.", v.st.WorstOutageMs)
	fmt.Fprintf(&b, "# HELP mmserved_harvested_rel_hist Harvested UEs by serving reliability decile.\n# TYPE mmserved_harvested_rel_hist gauge\n")
	for bin, n := range v.relHist {
		fmt.Fprintf(&b, "mmserved_harvested_rel_hist{bin=\"%d\"} %d\n", bin, n)
	}
	return b.String()
}
