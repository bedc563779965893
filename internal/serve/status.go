package serve

import (
	"fmt"

	"mmreliable/internal/cluster"
	"mmreliable/internal/link"
)

// Status is the daemon's boundary-time state. Every field except UEsPerSec
// is a pure function of simulated state — deterministic at any worker
// count and across kill/restore. UEsPerSec is wall-clock observability
// (resident-UE frames per second since Run started) and is deliberately
// excluded from Line.
type Status struct {
	Frame          int     `json:"frame"`
	SimTimeS       float64 `json:"sim_time_s"`
	Sites          int     `json:"sites"`
	Cells          int     `json:"cells"`
	ResidentUEs    int     `json:"resident_ues"`
	ActiveSessions int     `json:"active_sessions"`
	// Counters sums every site's cluster counters.
	Counters cluster.Counters `json:"counters"`
	// Harvested aggregates over UEs that already left (the O(shards)
	// sketch merge, not a per-UE walk).
	HarvestedUEs     int          `json:"harvested_ues"`
	HarvestedServing link.Summary `json:"harvested_serving"`
	WorstOutageMs    float64      `json:"worst_outage_ms"`
	// Digest is the metro state digest (hex) — the restore-verification
	// fold over every site's semantic state.
	Digest string `json:"digest"`
	// JournalLen counts applied external commands.
	JournalLen int `json:"journal_len"`
	// UEsPerSec is approximate wall-clock throughput (0 when unknown).
	UEsPerSec float64 `json:"ues_per_sec,omitempty"`
}

// Line renders the deterministic status line — the stream the CI
// kill-and-restore diff concatenates. %v floats (shortest round-trip), no
// wall-clock fields.
func (st Status) Line() string {
	return fmt.Sprintf(
		"mmserved frame=%d t=%v ues=%d sess=%d att=%d fin=%d defer=%d ho=%d pp=%d probes=%d harv=%d rel=%v thr=%v worst=%v jrnl=%d dig=%s",
		st.Frame, st.SimTimeS, st.ResidentUEs, st.ActiveSessions,
		st.Counters.UEsAttached, st.Counters.UEsFinished, st.Counters.AdmissionDeferrals,
		st.Counters.Handovers, st.Counters.PingPongs, st.Counters.MonitorProbes,
		st.HarvestedUEs, st.HarvestedServing.Reliability, st.HarvestedServing.MeanThroughput,
		st.WorstOutageMs, st.JournalLen, st.Digest)
}

// writeStatus emits the deterministic status line for the frame that just
// completed, from the view published right after it. Loop-owned.
func (s *Server) writeStatus() {
	if s.statusW == nil {
		return
	}
	fmt.Fprintln(s.statusW, s.front.status().Line())
}
