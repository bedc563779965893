// Package hybrid is the few-RF-chain beamforming tier: the per-slot
// digital MMSE combiner that lets one cell serve several UEs in the same
// slot (SDMA), plus the planner's pairing screens. Each co-scheduled user
// keeps its own full-aperture analog beam from the paper's constructive
// multi-beam synthesis (internal/core/multibeam); the digital stage is the
// classical regularized-MMSE transmit beamformer solved over the
// co-scheduled users' cross-channel matrix with a Cholesky factorization of
// the K-user Gram (internal/cmx).
//
// Everything downstream of the combiner speaks SINR, not SNR: a co-scheduled
// user's slot outcome is its signal power against the sum of cross-terms
// leaked by the other users' beams (internal/link's SINR helpers), and MCS /
// outage are driven from that.
package hybrid
