package metro

import (
	"testing"

	"mmreliable/internal/nr"
)

// BenchmarkMetroFrameMixed measures the mixed mobile/static churn city —
// the incremental frame engine's honest workload: a quarter of the UEs pace
// the hall at walking speed (full recompute every slot — the temporal-
// coherence fast paths never fire for them), the rest sit still (quiescent
// fast paths), and session churn keeps arrivals and harvests flowing.
// UEs/sec counts resident-UE-frames per wall-clock second, sampled every
// frame because churn moves the population.
func BenchmarkMetroFrameMixed(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Clusters = 8
	cfg.Workers = 1
	cfg.MobileFraction = 0.25
	m, err := New(nr.Mu3(), cfg)
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	for i := 0; i < 40; i++ {
		m.AdvanceFrame()
	}
	b.ReportAllocs()
	b.ResetTimer()
	ueFrames := 0
	for i := 0; i < b.N; i++ {
		ueFrames += m.ResidentUEs()
		m.AdvanceFrame()
	}
	b.StopTimer()
	b.ReportMetric(float64(ueFrames)/b.Elapsed().Seconds(), "UEs/sec")
}

// BenchmarkMetroFrame measures the steady-state cost of advancing one
// frame of the default 8-site quiescent city (2 cells and 2 UEs per site,
// churn off, fading ablated) on the single-worker inline path, so the
// number is comparable across core counts. Must report 0 allocs/op;
// UEs/sec is the city-throughput headline: resident UEs times frames
// advanced per wall-clock second.
func BenchmarkMetroFrame(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.ChurnArrivalRate = 0
	m, err := New(nr.Mu3(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		m.AdvanceFrame() // admit, establish, warm every per-site buffer
	}
	ues := m.ResidentUEs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.AdvanceFrame()
	}
	b.StopTimer()
	b.ReportMetric(float64(ues*b.N)/b.Elapsed().Seconds(), "UEs/sec")
}

// BenchmarkMetroDigestSum measures one full state digest of the 64-site
// quiescent city the serving daemon publishes at every frame boundary
// (2 cells and 2 static UEs per site, churn off, one worker, warmed 50
// frames). Must report 0 allocs/op.
func BenchmarkMetroDigestSum(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Clusters = 64
	cfg.Workers = 1
	cfg.ChurnArrivalRate = 0
	cfg.MobileFraction = 0
	m, err := New(nr.Mu3(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		m.AdvanceFrame()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		digestSink = m.DigestSum()
	}
}

// digestSink keeps BenchmarkMetroDigestSum's result live.
var digestSink uint64
