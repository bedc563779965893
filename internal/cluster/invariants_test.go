package cluster

import (
	"math"
	"testing"

	"mmreliable/internal/link"
)

// TestBarrierInvariantsAcrossSeeds checks, at every frame boundary of a
// churning, blocking 4-cell cluster over 16 seeds, the invariants the frame
// barrier must keep whatever the draw:
//   - probe tokens are conserved: the grants a cell hands out in a frame
//     never exceed its ProbeBudget less the carryover owed at the boundary;
//   - every serving and diversity reliability lies in [0, 1];
//   - no served session's SNR (its last observation or any slot of the
//     frame) is NaN or +Inf.
func TestBarrierInvariantsAcrossSeeds(t *testing.T) {
	const (
		seeds  = 16
		frames = 40
	)
	for seed := int64(1); seed <= seeds; seed++ {
		cl := buildCluster(t, 4, 8, 1, seed, true, true)
		budget := cl.cfg.Station.ProbeBudget
		if budget <= 0 {
			t.Fatalf("fixture runs an unlimited probe budget")
		}
		grants := make([]int, cl.Cells())
		carry := make([]int, cl.Cells())
		var served, owed int
		for f := 0; f < frames; f++ {
			for c := range cl.cells {
				grants[c] = cl.CellCounters(c).Grants
				carry[c] = cl.cells[c].st.ProbeCarryover()
				if carry[c] > 0 {
					owed++
				}
			}
			cl.AdvanceFrame()
			for c := range cl.cells {
				got := cl.CellCounters(c).Grants - grants[c]
				if allow := max(budget-carry[c], 0); got > allow {
					t.Fatalf("seed %d frame %d cell %d: %d grants, budget %d less carryover %d allows %d",
						seed, f, c, got, budget, carry[c], allow)
				}
			}
			cl.VisitUEs(func(out UEOutcome, serving, diversity *link.Meter) {
				for _, r := range []float64{serving.Reliability(), diversity.Reliability()} {
					if !(r >= 0 && r <= 1) {
						t.Fatalf("seed %d frame %d UE %d: reliability %g outside [0,1]", seed, f, out.ID, r)
					}
				}
			})
			for _, u := range cl.ues {
				if !u.attached || u.serving < 0 {
					continue
				}
				st, id := cl.cells[u.serving].st, u.sess[u.serving]
				if !st.SessionActive(id) {
					continue
				}
				served++
				if snr := st.SessionLastSNR(id); math.IsNaN(snr) || math.IsInf(snr, 1) {
					t.Fatalf("seed %d frame %d UE %d: last SNR %g", seed, f, u.id, snr)
				}
				for k, s := range st.SessionFrameSlots(id) {
					if math.IsNaN(s.SNRdB) || math.IsInf(s.SNRdB, 1) {
						t.Fatalf("seed %d frame %d UE %d slot %d: SNR %g", seed, f, u.id, k, s.SNRdB)
					}
				}
			}
		}
		if served == 0 || owed == 0 {
			t.Fatalf("seed %d: fixture too quiet (%d served session-frames, %d owing boundaries)", seed, served, owed)
		}
	}
}
