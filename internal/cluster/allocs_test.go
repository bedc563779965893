package cluster

import (
	"runtime"
	"testing"

	"mmreliable/internal/env"
	"mmreliable/internal/nr"
	"mmreliable/internal/sim"
)

// heapBytesPerRun measures the mean heap bytes allocated per call of f —
// the bytes/op half of the zero-alloc contract (see the station pin).
func heapBytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up once outside the measured window
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs)
}

// quiesceCluster builds a fading-free 2-cell/2-UE cluster and runs it past
// establishment: the quiescent steady state whose frame loop the alloc pin
// and the benchmark measure. Fading is disabled for the same reason as in
// the station pin — fading jitter periodically triggers re-alignment
// rounds whose weight recomposition intentionally allocates.
func quiesceCluster(t testing.TB, workers int) *Cluster {
	e, poses := env.MultiCellHall(env.Band28GHz(), 2)
	cfg := DefaultConfig()
	cfg.Seed = 31
	cfg.Station.Workers = workers
	// Static UEs, so the §4.2 mobility loop is pure noise response here:
	// sounder jitter on the hall's longer links periodically triggers a
	// re-alignment whose weight recomposition intentionally allocates
	// (the fresh vector escapes into the front end). Switch the loop off —
	// the paper's own "w/o tracking" ablation — to isolate the frame
	// loop's quiescent steady state.
	cfg.Station.Manager.ProactiveTracking = false
	cl, err := New(nr.Mu3(), cfg, Deployment{Env: e, Cells: poses, Budget: sim.IndoorBudget()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, pos := range env.HallUEPositions(2) {
		if _, err := cl.AddUE(UEConfig{Pos: pos}); err != nil {
			t.Fatalf("AddUE: %v", err)
		}
	}
	for c := range cl.ues[0].scen {
		for _, u := range cl.ues {
			u.scen[c].Fading = nil
		}
	}
	// Warm: admission, initial training on both legs, first monitor
	// rounds, meter episode-buffer growth.
	for i := 0; i < 40; i++ {
		cl.AdvanceFrame()
	}
	return cl
}

// TestClusterSlotAllocs pins the steady-state cluster frame loop at zero
// allocations: retained monitor sounders/models/beams, the member
// stations' pinned slot loops, and barrier-only coordination keep
// AdvanceFrame off the allocator once every leg is established.
func TestClusterSlotAllocs(t *testing.T) {
	for _, workers := range []int{1, 2} { // the stations' inline and pooled paths
		cl := quiesceCluster(t, workers)
		avg := testing.AllocsPerRun(10, cl.AdvanceFrame)
		if avg != 0 {
			t.Fatalf("workers=%d: AdvanceFrame allocates %.1f allocs/frame in steady state, want 0", workers, avg)
		}
		// Bytes too — amortized episode-buffer appends used to leak ~240
		// B/frame here while rounding to 0 allocs/op.
		if bytes := heapBytesPerRun(50, cl.AdvanceFrame); bytes != 0 {
			t.Fatalf("workers=%d: AdvanceFrame allocates %.1f B/frame in steady state, want 0", workers, bytes)
		}
	}
}

// TestClusterFrameAllocsAcrossRetrains pins the frame loop at EXACTLY zero
// heap bytes over a window long enough to include full re-establishments.
// The short window above misses them: a marginal standby leg in this
// fixture dips below the outage threshold every ~150 frames, confirms a
// data outage, and retrains from scratch — which used to allocate ~24 KB
// per event (amortizing to the 60 B/op the cluster benchmark reported).
// With the manager's establishment stores the whole sweep → probe →
// estimate → select → compose pipeline is retained, so even windows
// covering multiple retrain events stay at zero bytes.
func TestClusterFrameAllocsAcrossRetrains(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-retrain window is ~0.3 s of simulation")
	}
	cl := quiesceCluster(t, 1)
	// Warm a little further so per-session one-time growth (the
	// RetrainReasons key insert on the first outage-driven retrain, the
	// weight double-buffer fill at first establishment) is behind us, then
	// measure a window wide enough to contain the fixture's next natural
	// data-outage retrain (ue001's marginal standby leg dips below the
	// outage threshold around frame 250 under seed 31).
	for i := 0; i < 100; i++ {
		cl.AdvanceFrame()
	}
	retrains := clusterRetrains(cl)
	if bytes := heapBytesPerRun(400, cl.AdvanceFrame); bytes != 0 {
		t.Fatalf("AdvanceFrame allocates %.2f B/frame across retrains, want exactly 0", bytes)
	}
	if clusterRetrains(cl) == retrains {
		t.Fatal("measured window saw no retrain: fixture no longer exercises re-establishment")
	}
}

// clusterRetrains sums manager retrain counts across every live session.
func clusterRetrains(cl *Cluster) int {
	n := 0
	for _, cell := range cl.cells {
		n += cell.st.Results().Counters.Retrains
	}
	return n
}
