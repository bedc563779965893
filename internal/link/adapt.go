package link

import "fmt"

// RateAdapter performs closed-loop link adaptation the way a real gNB does:
// from MEASURED SNR (CQI feedback) rather than genie channel knowledge. It
// holds the latest SNR estimate, applies an outer-loop margin driven by
// ACK/NACK outcomes (jump up on failure, decay on success — the classic
// OLLA giving a ~StepDown/StepUp BLER target), and picks the MCS from the
// adjusted estimate. A transport block whose MCS threshold exceeds the true
// SNR is lost entirely.
//
// Everything in the simulator's throughput accounting uses genie MCS by
// default (matching the paper's testbed post-processing); RateAdapter
// quantifies what measured-CQI operation costs (experiment e3).
type RateAdapter struct {
	// StepUpDB is added to the margin on each NACK.
	StepUpDB float64
	// StepDownDB is removed from the margin on each ACK.
	StepDownDB float64
	// MaxMarginDB caps the outer-loop margin.
	MaxMarginDB float64

	est      float64
	haveEst  bool
	marginDB float64

	// Acks and Nacks count transmission outcomes.
	Acks, Nacks int
}

// NewRateAdapter returns an adapter with a 10% BLER target
// (StepDown/StepUp = 0.1).
func NewRateAdapter() *RateAdapter {
	return &RateAdapter{StepUpDB: 1.0, StepDownDB: 0.1, MaxMarginDB: 10}
}

// Validate checks the adapter parameters.
func (r *RateAdapter) Validate() error {
	if r.StepUpDB <= 0 || r.StepDownDB <= 0 || r.MaxMarginDB < 0 {
		return fmt.Errorf("link: invalid OLLA steps %+v", r)
	}
	return nil
}

// Observe feeds a measured SNR (from a CSI report or probe) into the
// adapter.
func (r *RateAdapter) Observe(snrDB float64) {
	r.est = snrDB
	r.haveEst = true
}

// Transmit selects an MCS from the margin-adjusted estimate and attempts a
// transmission against the true SNR. It returns the achieved throughput in
// bits/s (0 on failure or when the adjusted estimate is below the outage
// threshold) and whether the transport block was delivered.
func (r *RateAdapter) Transmit(trueSNRdB, bandwidthHz float64) (float64, bool) {
	if !r.haveEst {
		return 0, false
	}
	adj := r.est - r.marginDB
	if adj < OutageThresholdDB {
		// The link looks undecodable: no transmission, no OLLA update.
		return 0, false
	}
	e, ok := CQIFromSNR(adj)
	if !ok {
		return 0, false
	}
	if trueSNRdB < e.MinSNRdB {
		// Block error: the channel was worse than the estimate promised.
		r.Nacks++
		r.marginDB += r.StepUpDB
		if r.marginDB > r.MaxMarginDB {
			r.marginDB = r.MaxMarginDB
		}
		return 0, false
	}
	r.Acks++
	r.marginDB -= r.StepDownDB
	if r.marginDB < 0 {
		r.marginDB = 0
	}
	return e.Efficiency * bandwidthHz, true
}

// BLER returns the observed block error rate so far (0 before any
// transmission).
func (r *RateAdapter) BLER() float64 {
	total := r.Acks + r.Nacks
	if total == 0 {
		return 0
	}
	return float64(r.Nacks) / float64(total)
}
