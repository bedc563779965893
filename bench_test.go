// Package mmreliable_test hosts the benchmark harness that regenerates
// every table and figure of the paper's evaluation (run with
// `go test -bench=. -benchmem`), plus micro-benchmarks for the hot
// signal-processing paths. Each BenchmarkFigXX wraps the corresponding
// experiments.FigXX generator; the table it produces is printed once per
// benchmark so `go test -bench` output doubles as the reproduction record.
// The mmbench command prints the same tables without the benchmarking
// overhead.
package mmreliable_test

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"testing"

	"mmreliable/internal/antenna"
	"mmreliable/internal/channel"
	"mmreliable/internal/cmx"
	"mmreliable/internal/core/manager"
	"mmreliable/internal/core/superres"
	"mmreliable/internal/env"
	"mmreliable/internal/experiments"
	"mmreliable/internal/hybrid"
	"mmreliable/internal/link"
	"mmreliable/internal/nr"
	"mmreliable/internal/scratch"
	"mmreliable/internal/seeds"
	"mmreliable/internal/sim"
	"mmreliable/internal/station"
	"mmreliable/internal/stats"
)

// benchCfg keeps bench iterations affordable while remaining deterministic.
var benchCfg = experiments.Config{Seed: 1, Quick: true}

var printOnce sync.Map

// runFigure executes one figure generator b.N times and prints its table
// once.
func runFigure(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var table *stats.Table
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table = e.Run(benchCfg)
	}
	b.StopTimer()
	if _, done := printOnce.LoadOrStore(id, true); !done && table != nil {
		fmt.Fprintf(os.Stderr, "\n%s\n", table.String())
	}
}

// One benchmark per paper table/figure.

func BenchmarkFig04aReflectorCDF(b *testing.B)   { runFigure(b, "4a") }
func BenchmarkFig04bPathHeatmap(b *testing.B)    { runFigure(b, "4b") }
func BenchmarkFig08DelaySpread(b *testing.B)     { runFigure(b, "8") }
func BenchmarkFig11aSuperres(b *testing.B)       { runFigure(b, "11a") }
func BenchmarkFig11bTwoSinc(b *testing.B)        { runFigure(b, "11b") }
func BenchmarkFig13dPattern(b *testing.B)        { runFigure(b, "13d") }
func BenchmarkFig14Sensitivity(b *testing.B)     { runFigure(b, "14") }
func BenchmarkFig15aPhaseScan(b *testing.B)      { runFigure(b, "15a") }
func BenchmarkFig15bAmpScan(b *testing.B)        { runFigure(b, "15b") }
func BenchmarkFig15cPhaseStability(b *testing.B) { runFigure(b, "15c") }
func BenchmarkFig15dOracleGap(b *testing.B)      { runFigure(b, "15d") }
func BenchmarkFig16Blockage(b *testing.B)        { runFigure(b, "16") }
func BenchmarkFig17aPowerRotation(b *testing.B)  { runFigure(b, "17a") }
func BenchmarkFig17bTrackAccuracy(b *testing.B)  { runFigure(b, "17b") }
func BenchmarkFig17cTracking(b *testing.B)       { runFigure(b, "17c") }
func BenchmarkFig18aStatic(b *testing.B)         { runFigure(b, "18a") }
func BenchmarkFig18bReliability(b *testing.B)    { runFigure(b, "18b") }
func BenchmarkFig18cTradeoff(b *testing.B)       { runFigure(b, "18c") }
func BenchmarkFig18dOverhead(b *testing.B)       { runFigure(b, "18d") }
func BenchmarkFig19Band60GHz(b *testing.B)       { runFigure(b, "19") }

// Ablations and §8 extensions beyond the paper's figures.

func BenchmarkAblationQuantization(b *testing.B) { runFigure(b, "a1") }
func BenchmarkAblationMaintenance(b *testing.B)  { runFigure(b, "a2") }
func BenchmarkAblationCorrBlockage(b *testing.B) { runFigure(b, "a3") }
func BenchmarkAblationCCRefresh(b *testing.B)    { runFigure(b, "a4") }
func BenchmarkAblationTraining(b *testing.B)     { runFigure(b, "a5") }
func BenchmarkExtensionIRS(b *testing.B)         { runFigure(b, "e1") }
func BenchmarkExtensionHandover(b *testing.B)    { runFigure(b, "e2") }
func BenchmarkExtensionRateAdapt(b *testing.B)   { runFigure(b, "e3") }
func BenchmarkExtensionMultiUser(b *testing.B)   { runFigure(b, "e4") }
func BenchmarkExtensionStation(b *testing.B)     { runFigure(b, "e5") }
func BenchmarkExtensionCluster(b *testing.B)     { runFigure(b, "e6") }
func BenchmarkExtensionMetro(b *testing.B)       { runFigure(b, "e7") }
func BenchmarkExtensionHybrid(b *testing.B)      { runFigure(b, "e8") }

// Micro-benchmarks for the hot per-slot/per-probe paths, to show the
// reproduction's algorithmic costs (the paper reports its super-resolution
// solve at ~100 µs).

func benchChannel() *channel.Model {
	return channel.FromSpecs(env.Band28GHz(), antenna.NewULA(8, 28e9), 80, []channel.PathSpec{
		{AoDDeg: 0, DelayNs: 20},
		{AoDDeg: 30, RelAttDB: 4, PhaseRad: 1.0, DelayNs: 28},
		{AoDDeg: -25, RelAttDB: 7, PhaseRad: -0.5, DelayNs: 35},
	})
}

func BenchmarkRayTrace(b *testing.B) {
	e := env.ConferenceRoom(env.Band28GHz())
	gnb := env.GNBPose(true)
	ue := env.Pose{Pos: env.Vec2{X: 6, Y: 2.6}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = e.Trace(gnb, ue)
	}
}

// Scratch-reusing variants of the hot paths: these are the steady-state
// costs of the factored wideband kernel (BenchmarkProbe must report
// 0 allocs/op — pinned by TestProbeIntoAllocs as well).

func BenchmarkProbe(b *testing.B) {
	m := benchChannel()
	s, err := nr.NewSounder(nr.Mu3(), 400e6, 64, 1e-6, nr.DefaultImpairments(), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	w := m.Tx.SingleBeam(0)
	dst := make(cmx.Vector, s.NumSC)
	s.ProbeInto(m, w, dst) // warm FFT plan + channel cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.ProbeInto(m, w, dst)
	}
}

func BenchmarkEffectiveWidebandInto(b *testing.B) {
	m := benchChannel()
	w := m.Tx.SingleBeam(0)
	offs := channel.SubcarrierOffsets(400e6, 64)
	dst := make(cmx.Vector, len(offs))
	m.EffectiveWidebandInto(w, offs, dst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.EffectiveWidebandInto(w, offs, dst)
	}
}

// BenchmarkSuperresExtractInto is the frequency-domain fit on a
// per-worker workspace — the steady-state maintenance-tick cost (0
// allocs/op, pinned by TestExtractIntoAllocs as well).
func BenchmarkSuperresExtractInto(b *testing.B) {
	m := benchChannel()
	s, err := nr.NewSounder(nr.Mu3(), 400e6, 64, 1e-6, nr.DefaultImpairments(), rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	w := m.PerAntennaCSI(0).Conj().Normalize()
	cir := s.CIR(s.Probe(m, w))
	rel := []float64{0, 8e-9, 15e-9}
	ws := scratch.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mk := ws.Mark()
		if _, err := superres.ExtractInto(cir, rel, s.SampleSpacing(), superres.DefaultConfig(), ws); err != nil {
			b.Fatal(err)
		}
		ws.Release(mk)
	}
}

// BenchmarkManagerMaintainTick measures a steady-state maintenance round
// through the public Step path on an established static indoor link: one
// CSI-RS probe, OFDM round trip, CIR, frequency-domain super-resolution
// fit, and tracker observation per iteration (the allocation floor of the
// inner round is pinned exactly by the manager package's
// TestMaintainTickAllocs).
func BenchmarkManagerMaintainTick(b *testing.B) {
	mcfg := manager.DefaultConfig()
	mgr, err := manager.New("m", antenna.NewULA(8, 28e9), link.DefaultBudget(), nr.Mu3(), mcfg, rand.New(rand.NewSource(9)))
	if err != nil {
		b.Fatal(err)
	}
	sc := sim.StaticIndoor(5)
	if _, err := (sim.Runner{}).Run(sc, mgr); err != nil {
		b.Fatal(err)
	}
	m := sc.ChannelAt(sc.Duration)
	t := sc.Duration
	// Warm: settle any anchor rebuild before measuring.
	for i := 0; i < 3; i++ {
		t += mcfg.MaintainPeriod
		mgr.Step(t, m)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t += mcfg.MaintainPeriod
		mgr.Step(t, m)
	}
}

// BenchmarkHybridSlot measures the hybrid SDMA tier's steady-state per-
// session-slot cost: 4 fading-free spread UEs forced into shared slots
// (thresholds wide open) on the inline single-worker path, so every owned
// data slot runs the per-slot MMSE combine. Must report 0 allocs/op — the
// station package's TestHybridSlotAllocs pins the same loop exactly.
func BenchmarkHybridSlot(b *testing.B) {
	cfg := station.DefaultConfig()
	cfg.Workers = 1
	cfg.SDMA = station.SDMAConfig{Chains: 4, MinSeparationDeg: 0, MinSINRdB: -100}
	st, err := station.New(nr.Mu3(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	const ues = 4
	for i := 0; i < ues; i++ {
		s := seeds.Mix(43, int64(i))
		sc := sim.SpreadStaticIndoor(s, float64(i)/(ues-1))
		sc.Fading = nil
		if _, err := st.Attach(station.SessionConfig{
			Scenario: sc,
			Budget:   sim.IndoorBudget(),
			Seed:     s,
		}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		st.AdvanceFrame()
	}
	if st.CountersSnapshot().SDMAGroups == 0 {
		b.Fatal("warmup never grouped — the benchmark would not cover the combiner")
	}
	slotsPerOp := ues * st.SlotsPerFrame()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.AdvanceFrame()
	}
	b.StopTimer()
	perSlot := float64(b.Elapsed().Nanoseconds()) / float64(b.N*slotsPerOp)
	b.ReportMetric(perSlot, "ns/sessionslot")
	b.ReportMetric(1e9/perSlot, "sessionslots/s")
}

// BenchmarkMMSECombiner measures one digital-combining round in isolation:
// a 4-user group over 64 subcarriers — cross-channel fill excluded, so this
// is the Gram build + Cholesky solve + per-user wideband SINR fold. Must
// report 0 allocs/op (the combiner's own test pins it).
func BenchmarkMMSECombiner(b *testing.B) {
	const k, nsc = 4, 64
	c := hybrid.NewCombiner(k, nsc)
	rng := rand.New(rand.NewSource(9))
	c.Begin(k)
	for u := 0; u < k; u++ {
		for v := 0; v < k; v++ {
			re, im := c.Entry(u, v)
			amp := 1e-4
			if u != v {
				amp *= 0.1
			}
			ph := rng.Float64()
			for s := 0; s < nsc; s++ {
				re[s] = amp * math.Cos(ph+0.01*float64(s))
				im[s] = amp * math.Sin(ph+0.01*float64(s))
			}
		}
	}
	const txLin, noiseLin = 1.0, 1e-10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Begin(k)
		if err := c.Solve(txLin, noiseLin); err != nil {
			b.Fatal(err)
		}
		for u := 0; u < k; u++ {
			_ = c.UserSINRdB(u, txLin, noiseLin)
		}
	}
}
