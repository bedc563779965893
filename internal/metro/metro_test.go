package metro

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"mmreliable/internal/incr"
	"mmreliable/internal/nr"
)

// runMetro builds and runs a metro with the given worker count and returns
// its results.
func runMetro(t testing.TB, cfg Config, workers int, duration float64) Results {
	t.Helper()
	cfg.Workers = workers
	m, err := New(nr.Mu3(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m.Run(duration)
}

// TestMetroDeterminismAcrossWorkers is the tentpole acceptance pin: a
// 64-site metro with session churn produces byte-identical Results at 1
// and 8 workers (and the deterministic text report renders identically).
func TestMetroDeterminismAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("64-site determinism run is seconds of wall clock")
	}
	cfg := DefaultConfig()
	cfg.Clusters = 64
	cfg.Seed = 7
	cfg.MobileFraction = 0.3 // mixed mobile/static population
	r1 := runMetro(t, cfg, 1, 0.6)
	r8 := runMetro(t, cfg, 8, 0.6)
	if !reflect.DeepEqual(r1, r8) {
		t.Fatalf("metro results differ between 1 and 8 workers:\n1: %+v\n8: %+v", r1, r8)
	}
	var b1, b8 bytes.Buffer
	r1.Write(&b1)
	r8.Write(&b8)
	if !bytes.Equal(b1.Bytes(), b8.Bytes()) {
		t.Fatalf("metro reports differ between 1 and 8 workers:\n%s\nvs\n%s", b1.String(), b8.String())
	}
	if r1.UEs == 0 || r1.Measured == 0 || r1.Slots == 0 {
		t.Fatalf("degenerate run: %+v", r1)
	}
	if r1.Counters.UEsFinished == 0 {
		t.Fatal("churn run finished no UEs — harvest path not exercised")
	}
}

// TestMetroIncrementalModeEquivalence pins the incremental frame engine's
// oracle contract end-to-end through the metro stack: a mixed mobile/static
// churn city (spatial index built, fading off — every temporal-coherence
// fast path engages for the static UEs while the mobile ones force full
// recompute and cache revalidation) produces byte-identical Results and a
// byte-identical text report with the fast paths on and off.
func TestMetroIncrementalModeEquivalence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Clusters = 6
	cfg.Seed = 11
	cfg.MobileFraction = 0.4
	was := incr.Enabled
	defer func() { incr.Enabled = was }()
	incr.Enabled = true
	rOn := runMetro(t, cfg, 1, 0.8)
	incr.Enabled = false
	rOff := runMetro(t, cfg, 1, 0.8)
	if !reflect.DeepEqual(rOn, rOff) {
		t.Fatalf("metro results differ between incremental and oracle mode:\non:  %+v\noff: %+v", rOn, rOff)
	}
	var bOn, bOff bytes.Buffer
	rOn.Write(&bOn)
	rOff.Write(&bOff)
	if !bytes.Equal(bOn.Bytes(), bOff.Bytes()) {
		t.Fatalf("metro reports differ between incremental and oracle mode:\n%s\nvs\n%s", bOn.String(), bOff.String())
	}
}

// TestMetroChurnBoundsResidency pins the streaming-aggregation memory
// contract: with harvesting on, the resident UE population stays bounded
// by the churn equilibrium while the folded session count keeps growing —
// the cluster is NOT accumulating every UE ever served.
func TestMetroChurnBoundsResidency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Clusters = 4
	cfg.ChurnArrivalRate = 4
	cfg.MeanSessionS = 0.4
	m, err := New(nr.Mu3(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	frames := int(3.0 / m.FramePeriod())
	peak := 0
	for i := 0; i < frames; i++ {
		m.AdvanceFrame()
		if r := m.ResidentUEs(); r > peak {
			peak = r
		}
	}
	res := m.Results()
	// Equilibrium residency ≈ rate × mean session ≈ 1.6/site plus the
	// initial two; sessions over 3 s ≈ 12/site. If harvesting broke,
	// residency would equal total sessions.
	if res.UEs < res.ResidentUEs*2 {
		t.Fatalf("only %d total sessions vs %d resident: churn too weak to prove harvesting",
			res.UEs, res.ResidentUEs)
	}
	if peak >= res.UEs {
		t.Fatalf("peak residency %d reached total sessions %d: finished UEs not harvested", peak, res.UEs)
	}
	if res.Counters.UEsFinished == 0 {
		t.Fatal("no UE ever finished")
	}
	// The folded aggregate must cover every session: finished + resident.
	if res.UEs != res.Counters.UEsFinished+res.ResidentUEs {
		t.Fatalf("folded sessions %d != finished %d + resident %d",
			res.UEs, res.Counters.UEsFinished, res.ResidentUEs)
	}
}

// TestMetroWorkerPoolRace exercises the shard-stealing pool under churn so
// `go test -race` sweeps the frame barrier, the shared indexed environment,
// and the per-shard sketch folds. Results correctness is covered by the
// determinism test; this one just needs concurrent execution.
func TestMetroWorkerPoolRace(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Clusters = 16
	cfg.Shards = 8
	cfg.Workers = 4
	m, err := New(nr.Mu3(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 20; i++ {
		m.AdvanceFrame()
	}
	if m.Results().Slots == 0 {
		t.Fatal("no slots measured")
	}
}

// TestMetroMidRunResultsRepeatable: Results mid-run must not perturb the
// live sketches (it reduces clones), so calling it twice — or continuing
// the run afterwards — changes nothing.
func TestMetroMidRunResultsRepeatable(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Clusters = 4
	m, err := New(nr.Mu3(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 15; i++ {
		m.AdvanceFrame()
	}
	a := m.Results()
	b := m.Results()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("repeated Results() calls differ")
	}

	// And a fresh metro advanced the same way, with Results polled every
	// frame, lands on the same final state.
	m2, err := New(nr.Mu3(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 15; i++ {
		m2.AdvanceFrame()
		_ = m2.Results()
	}
	if c := m2.Results(); !reflect.DeepEqual(a, c) {
		t.Fatal("polling Results every frame perturbed the run")
	}
}

// TestMetroShardPartitionInvariants checks shard bookkeeping across odd
// site/shard ratios.
func TestMetroShardPartitionInvariants(t *testing.T) {
	for _, tc := range []struct{ clusters, shards int }{
		{1, 0}, {3, 2}, {7, 3}, {64, 0}, {65, 0}, {5, 64},
	} {
		cfg := DefaultConfig()
		cfg.Clusters = tc.clusters
		cfg.Shards = tc.shards
		cfg.ChurnArrivalRate = 0
		cfg.UEsPerCluster = 1
		m, err := New(nr.Mu3(), cfg)
		if err != nil {
			t.Fatalf("New(%+v): %v", tc, err)
		}
		covered := 0
		for s := 0; s < m.Shards(); s++ {
			lo, hi := m.shardLo[s], m.shardLo[s+1]
			if hi <= lo {
				t.Fatalf("%+v: empty shard %d", tc, s)
			}
			for si := lo; si < hi; si++ {
				if m.shardOf(si) != s {
					t.Fatalf("%+v: site %d maps to shard %d, want %d", tc, si, m.shardOf(si), s)
				}
			}
			covered += hi - lo
		}
		if covered != tc.clusters {
			t.Fatalf("%+v: shards cover %d sites, want %d", tc, covered, tc.clusters)
		}
	}
}

// TestMetroFrameZeroAllocTwoWorkers pins the quiescent city frame at zero
// allocations with the shards fanned out over two workers: the shards are
// the outermost par.For, and the stations' nested Fors run on the shard
// workers in preallocated slots instead of starting goroutines.
func TestMetroFrameZeroAllocTwoWorkers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ChurnArrivalRate = 0
	cfg.Workers = 2
	m, err := New(nr.Mu3(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 40; i++ { // warm caches: monitor rows, batch scratch, EWMA state
		m.AdvanceFrame()
	}
	if avg := testing.AllocsPerRun(100, m.AdvanceFrame); avg != 0 {
		t.Errorf("metro AdvanceFrame allocates %.1f objects/frame in steady state, want 0", avg)
	}
}

// TestInjectAttachRejectsOffFloor pins the attach position gate: a point
// not strictly inside the hall floor, within half a metre of a gNB, or on a
// wall (the interior glass partition and display row included) is refused
// without adding a UE; an interior point is admitted.
func TestInjectAttachRejectsOffFloor(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Clusters = 1
	m, err := New(nr.Mu3(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	resident := m.sites[0].cl.ResidentUEs()
	for _, p := range []struct {
		name string
		x, y float64
	}{
		{"far away", 1e6, 1e6},
		{"west of the west wall", -5, 6},
		{"on the south wall", 10, 0},
		{"on gNB 0", 5, 0.4},
		{"next to gNB 1", 15.3, 11.4},
		{"on the glass partition", 6, 7.8},
		{"beside the glass partition", 6, 7.85},
		{"on the wooden display row", 14, 4.2},
		{"at the display row's end", 16.05, 4.2},
		{"hugging the east wall", 19.95, 6},
		{"NaN", math.NaN(), 6},
	} {
		if _, err := m.InjectAttach(0, AttachSpec{HasPos: true, X: p.x, Y: p.y}); err == nil {
			t.Errorf("%s (%g, %g): attach accepted", p.name, p.x, p.y)
		}
	}
	if got := m.sites[0].cl.ResidentUEs(); got != resident {
		t.Fatalf("rejected attaches changed the population: %d UEs, want %d", got, resident)
	}
	if _, err := m.InjectAttach(0, AttachSpec{HasPos: true, X: 3.5, Y: 1.25}); err != nil {
		t.Fatalf("interior attach refused: %v", err)
	}
}
