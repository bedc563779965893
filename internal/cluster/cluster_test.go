package cluster

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"mmreliable/internal/env"
	"mmreliable/internal/events"
	"mmreliable/internal/incr"
	"mmreliable/internal/link"
	"mmreliable/internal/nr"
	"mmreliable/internal/sim"
)

// nearestCell returns the index of the gNB pose closest to pos.
func nearestCell(poses []env.Pose, pos env.Vec2) int {
	best, bestD := 0, math.Inf(1)
	for i, p := range poses {
		if d := p.Pos.Dist(pos); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// servingBlockage builds a deep body-block schedule for UE i: one 35 dB
// all-path event crossing the UE's (initially) serving link, onset
// staggered per UE. Deterministic in i.
func servingBlockage(i int) events.Schedule {
	start := 0.30 + 0.02*float64(i%7)
	return events.Schedule{{
		AllPaths: true,
		Start:    start,
		Duration: 0.30,
		DepthDB:  35,
		RampTime: events.RampFor(35),
	}}
}

// buildCluster assembles a cluster over the multi-cell hall: n UEs on the
// deterministic drop lattice, each with (optionally) a deep blocker
// crossing its nearest cell's link, plus mid-run churn (every fourth UE
// arrives late, every fifth leaves early). Deterministic in
// (cells, ues, seed, workers).
func buildCluster(t testing.TB, cells, ues, workers int, seed int64, blocked, churn bool) *Cluster {
	return buildClusterWith(t, cells, ues, workers, seed, blocked, churn, nil)
}

// buildClusterWith is buildCluster with a Config hook applied before New.
func buildClusterWith(t testing.TB, cells, ues, workers int, seed int64, blocked, churn bool, mut func(*Config)) *Cluster {
	t.Helper()
	e, poses := env.MultiCellHall(env.Band28GHz(), cells)
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Station.Workers = workers
	if mut != nil {
		mut(&cfg)
	}
	cl, err := New(nr.Mu3(), cfg, Deployment{Env: e, Cells: poses, Budget: sim.IndoorBudget()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i, pos := range env.HallUEPositions(ues) {
		ucfg := UEConfig{Pos: pos}
		if blocked {
			blk := make([]events.Schedule, cells)
			blk[nearestCell(poses, pos)] = servingBlockage(i)
			ucfg.Blockage = blk
		}
		if churn && i%4 == 3 {
			ucfg.AttachAt = 0.15
		}
		if churn && i%5 == 4 {
			ucfg.DetachAt = 0.45
		}
		if _, err := cl.AddUE(ucfg); err != nil {
			t.Fatalf("AddUE %d: %v", i, err)
		}
	}
	return cl
}

// TestClusterDeterministicAcrossWorkers is the subsystem's core contract:
// byte-identical Results for 1 vs 8 workers on a 3-cell/8-UE cluster with
// churn and blockage-driven handovers — the same guarantee the CI
// determinism diff checks end-to-end through mmcluster.
func TestClusterDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker determinism sweep is slow; covered by CI diff")
	}
	const dur = 0.7
	res1 := buildCluster(t, 3, 8, 1, 7, true, true).Run(dur)
	res8 := buildCluster(t, 3, 8, 8, 7, true, true).Run(dur)
	if !reflect.DeepEqual(res1, res8) {
		t.Fatalf("results differ between 1 and 8 workers:\n1: %+v\n8: %+v", res1, res8)
	}
	if res1.Counters.Handovers == 0 {
		t.Fatalf("blockage produced no handovers: %+v", res1.Counters)
	}
	if res1.Counters.UEsFinished == 0 {
		t.Fatalf("churn did not exercise UE departure: %+v", res1.Counters)
	}
}

// TestClusterIncrementalModeEquivalence pins the incremental frame engine's
// oracle contract at the cluster layer: the blockage+churn fixture produces
// byte-identical Results with the temporal-coherence fast paths on and off
// (the MMR_INCREMENTAL=off oracle). The quiescent fixture (fading disabled,
// spatial index built — the regime where every fast path engages) must also
// actually fire the monitor row cache; the deliberately mode-variant
// MonitorRowsReused diagnostic is zeroed before comparison.
func TestClusterIncrementalModeEquivalence(t *testing.T) {
	was := incr.Enabled
	defer func() { incr.Enabled = was }()
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"fading", nil},
		{"quiescent", func(c *Config) { c.DisableFading = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const dur = 0.7
			run := func(enabled bool) Results {
				incr.Enabled = enabled
				return buildClusterWith(t, 3, 8, 1, 7, true, true, tc.mut).Run(dur)
			}
			on := run(true)
			off := run(false)
			if tc.name == "quiescent" && on.Counters.MonitorRowsReused == 0 {
				t.Fatal("incremental mode never reused a monitor row on the quiescent fixture")
			}
			if off.Counters.MonitorRowsReused != 0 {
				t.Fatalf("oracle mode reused %d monitor rows, want 0", off.Counters.MonitorRowsReused)
			}
			on.Counters.MonitorRowsReused = 0
			if !reflect.DeepEqual(on, off) {
				t.Fatalf("results differ between incremental and oracle mode:\non:  %+v\noff: %+v", on, off)
			}
		})
	}
}

// TestClusterManyWorkerCounts sweeps worker counts on a small cluster and
// requires identical fingerprints.
func TestClusterManyWorkerCounts(t *testing.T) {
	var ref string
	for _, w := range []int{1, 2, 5} {
		res := buildCluster(t, 2, 4, w, 17, true, false).Run(0.5)
		fp := fmt.Sprintf("%x/%x/%d/%d", res.MeanServingReliability,
			res.MeanDiversityReliability, res.Counters.Handovers, res.Counters.MonitorProbes)
		if ref == "" {
			ref = fp
		} else if fp != ref {
			t.Fatalf("workers=%d fingerprint %s != %s", w, fp, ref)
		}
	}
}

// TestClusterHandoverUnderBlockage is the tentpole behaviour: a deep
// blocker crosses the serving link of a 2-cell UE; the coordinator must
// detect the degradation and promote the hot standby, and the selection-
// diversity bound must ride through the blockage almost untouched while
// the serving-only leg eats the detection latency.
func TestClusterHandoverUnderBlockage(t *testing.T) {
	cl := buildCluster(t, 2, 1, 2, 3, true, false)
	res := cl.Run(1.0)
	if res.Counters.Handovers < 1 {
		t.Fatalf("no handover despite a 35 dB serving-link blockage: %+v", res.Counters)
	}
	if res.Counters.PingPongs != 0 {
		t.Fatalf("%d ping-pongs — hysteresis/dwell guard failed", res.Counters.PingPongs)
	}
	u := res.PerUE[0]
	if u.Serving.Reliability >= 1 {
		t.Fatalf("serving leg shows no outage at all (rel=%g) — the blocker never bit", u.Serving.Reliability)
	}
	if u.Diversity.Reliability < u.Serving.Reliability {
		t.Fatalf("diversity reliability %g below serving-only %g", u.Diversity.Reliability, u.Serving.Reliability)
	}
	if u.Diversity.Reliability < 0.99 {
		t.Fatalf("diversity reliability %g < 0.99 — the standby leg did not cover the blockage", u.Diversity.Reliability)
	}
	if u.DivMaxOutageMs > u.MaxOutageMs {
		t.Fatalf("diversity max outage %.1f ms exceeds serving-only %.1f ms", u.DivMaxOutageMs, u.MaxOutageMs)
	}
}

// TestClusterNoPingPongStatic is the hysteresis acceptance check: on a
// static channel (fading only, no blockage) the FSM must never hand over
// at all — the serving link never degrades, so TTT never accumulates.
func TestClusterNoPingPongStatic(t *testing.T) {
	res := buildCluster(t, 3, 4, 2, 11, false, false).Run(1.0)
	if res.Counters.Handovers != 0 {
		t.Fatalf("%d handovers on a static channel", res.Counters.Handovers)
	}
	if res.Counters.PingPongs != 0 {
		t.Fatalf("%d ping-pongs on a static channel", res.Counters.PingPongs)
	}
	if res.MeanServingReliability < 0.95 {
		t.Fatalf("static-channel serving reliability %g", res.MeanServingReliability)
	}
}

// TestClusterMonitorBudgetCharged verifies the bounded-overhead contract:
// monitoring probes are debited against the member cells' CSI-RS budgets
// (via the carryover mechanism), and the aggregate training overhead stays
// within the §5 envelope.
func TestClusterMonitorBudgetCharged(t *testing.T) {
	res := buildCluster(t, 3, 4, 1, 5, false, false).Run(0.5)
	if res.Counters.MonitorProbes == 0 {
		t.Fatal("no monitor probes fired")
	}
	if res.Counters.MonitorRounds == 0 {
		t.Fatal("no monitor rounds ran")
	}
	if res.OverheadPct <= 0 || res.OverheadPct > 6 {
		t.Fatalf("aggregate overhead %.2f%% outside (0, 6]", res.OverheadPct)
	}
	// 4 UEs × 1 non-attached cell (3 cells, 2 legs each), every 5th frame.
	wantPerRound := 4 * (3 - 2)
	gotPerRound := float64(res.Counters.MonitorProbes-3*4) / float64(res.Counters.MonitorRounds)
	if gotPerRound > float64(wantPerRound)+0.5 {
		t.Fatalf("%.1f monitor probes/round, want ≈ %d", gotPerRound, wantPerRound)
	}
}

// TestClusterAdmissionAndValidation covers construction and admission
// error paths.
func TestClusterAdmissionAndValidation(t *testing.T) {
	e, poses := env.MultiCellHall(env.Band28GHz(), 2)
	dep := Deployment{Env: e, Cells: poses, Budget: sim.IndoorBudget()}
	if _, err := New(nr.Mu3(), DefaultConfig(), Deployment{Env: e, Budget: sim.IndoorBudget()}); err == nil {
		t.Fatal("no cells accepted")
	}
	bad := DefaultConfig()
	bad.MonitorEvery = 0
	if _, err := New(nr.Mu3(), bad, dep); err == nil {
		t.Fatal("MonitorEvery 0 accepted")
	}
	bad = DefaultConfig()
	bad.ArrayElems = 1
	if _, err := New(nr.Mu3(), bad, dep); err == nil {
		t.Fatal("ArrayElems below the monitor beam's aperture accepted")
	}
	cfg := DefaultConfig()
	cfg.Station.Workers = 1
	cfg.Station.MaxSessions = 1 // each cell can hold ONE leg
	cl, err := New(nr.Mu3(), cfg, dep)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := cl.AddUE(UEConfig{Pos: env.Vec2{X: 10, Y: 6}, AttachAt: 0.2, DetachAt: 0.1}); err == nil {
		t.Fatal("DetachAt ≤ AttachAt accepted")
	}
	// Two UEs over two 1-session cells: the first takes both cells
	// (serving + standby), the second must be deferred every frame.
	for i := 0; i < 2; i++ {
		if _, err := cl.AddUE(UEConfig{Pos: env.HallUEPositions(2)[i]}); err != nil {
			t.Fatalf("AddUE: %v", err)
		}
	}
	res := cl.Run(0.3)
	if res.Counters.UEsAttached != 1 {
		t.Fatalf("admitted %d UEs into a 2×1-session cluster, want 1", res.Counters.UEsAttached)
	}
	if res.Counters.AdmissionDeferrals == 0 {
		t.Fatal("second UE was never deferred")
	}
	if res.PerUE[1].ServingCell != -1 {
		t.Fatalf("deferred UE reports serving cell %d", res.PerUE[1].ServingCell)
	}
}

// TestClusterOutageThresholdSanity pins the metric wiring: a measured UE's
// serving summary must carry finite SNR and nonzero throughput on a clean
// static link.
func TestClusterOutageThresholdSanity(t *testing.T) {
	res := buildCluster(t, 2, 1, 1, 9, false, false).Run(0.4)
	u := res.PerUE[0]
	if u.Serving.MeanSNRdB < link.OutageThresholdDB {
		t.Fatalf("static-link mean SNR %.1f below outage threshold", u.Serving.MeanSNRdB)
	}
	if u.Serving.MeanThroughput <= 0 || u.Diversity.MeanThroughput <= 0 {
		t.Fatalf("no throughput: %+v", u)
	}
	if res.AggThroughputBps <= 0 {
		t.Fatalf("no aggregate throughput: %+v", res)
	}
}

// TestClusterDetachHeldUntilAdmission: a detach applied at the boundary
// where the UE is still awaiting admission — here boundary 0, before any
// frame ran — is held rather than refused. The next frame admits the UE
// and the one after retires it, so attach-then-detach in one boundary
// always ends with the UE counted as attached and then finished.
func TestClusterDetachHeldUntilAdmission(t *testing.T) {
	cl := buildCluster(t, 2, 2, 1, 7, false, false)
	if err := cl.DetachUE(0); err != nil {
		t.Fatalf("DetachUE before admission: %v", err)
	}
	u := cl.findUE(0)
	cl.AdvanceFrame()
	if !u.attached || u.done {
		t.Fatalf("after the admitting frame: attached=%v done=%v, want admitted and not yet finished", u.attached, u.done)
	}
	cl.AdvanceFrame()
	if !u.done {
		t.Fatal("held detach did not retire the UE at the boundary after admission")
	}
	if c := cl.CountersSnapshot(); c.UEsAttached != 2 || c.UEsFinished != 1 {
		t.Errorf("UEsAttached=%d UEsFinished=%d, want 2 and 1", c.UEsAttached, c.UEsFinished)
	}
	if err := cl.DetachUE(0); err == nil {
		t.Error("detaching a finished UE succeeded, want an error")
	}
}

// TestClusterDetachDeferredRefused pins DetachUE on a saturated site: a UE
// whose admission was deferred because every cell is at MaxSessions is
// refused and stays queued, while detaching the UE holding the cells frees
// them for it once the cells have torn the legs down.
func TestClusterDetachDeferredRefused(t *testing.T) {
	cl := buildClusterWith(t, 2, 2, 1, 7, false, false, func(c *Config) {
		c.Station.MaxSessions = 1 // UE 0 takes both cells (serving + standby)
	})
	cl.AdvanceFrame()
	u0, u1 := cl.findUE(0), cl.findUE(1)
	if !u0.attached || u1.attached || cl.CountersSnapshot().AdmissionDeferrals != 1 {
		t.Fatalf("after frame 1: UE0 attached=%v UE1 attached=%v deferrals=%d, want UE1 deferred once",
			u0.attached, u1.attached, cl.CountersSnapshot().AdmissionDeferrals)
	}
	if err := cl.DetachUE(1); err == nil {
		t.Fatal("detaching a deferred UE succeeded, want an error")
	}
	if err := cl.DetachUE(0); err != nil {
		t.Fatalf("DetachUE(0): %v", err)
	}
	cl.AdvanceFrame() // UE 0 leaves; its cells release the legs in this frame
	cl.AdvanceFrame()
	if !u0.done || !u1.attached || u1.done {
		t.Fatalf("after frame 3: UE0 done=%v UE1 attached=%v done=%v, want UE0 gone and UE1 admitted", u0.done, u1.attached, u1.done)
	}
	if c := cl.CountersSnapshot(); c.UEsAttached != 2 || c.UEsFinished != 1 || c.AdmissionDeferrals != 2 {
		t.Errorf("UEsAttached=%d UEsFinished=%d AdmissionDeferrals=%d, want 2, 1, 2", c.UEsAttached, c.UEsFinished, c.AdmissionDeferrals)
	}
}
