package station

import (
	"fmt"
	"math/rand"
	"testing"

	"mmreliable/internal/antenna"
	"mmreliable/internal/channel"
	"mmreliable/internal/core/manager"
	"mmreliable/internal/link"
	"mmreliable/internal/nr"
	"mmreliable/internal/scratch"
	"mmreliable/internal/seeds"
	"mmreliable/internal/sim"
)

// BenchmarkStationSlot measures steady-state serving throughput in
// session·slots per second: an 8-UE station stepping whole frames on the
// inline single-worker path (the per-slot cost without goroutine overhead).
func BenchmarkStationSlot(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	st, err := New(nr.Mu3(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	const ues = 8
	for i := 0; i < ues; i++ {
		s := seeds.Mix(41, int64(i))
		if _, err := st.Attach(SessionConfig{
			Scenario: sim.StaticIndoor(s),
			Budget:   sim.IndoorBudget(),
			Seed:     s,
		}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		st.AdvanceFrame() // establish + warm buffers
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

// BenchmarkStationSlotQuiescent is BenchmarkStationSlot with fading
// disabled: the static, unblocked sessions are then temporally coherent
// slot to slot, so the incremental frame engine's quiescent fast paths
// (channel skip, SNR-fold cache, batch-entry row skip) carry the whole
// frame. Run with MMR_INCREMENTAL=off for the full-recompute cost of the
// same fixture.
func BenchmarkStationSlotQuiescent(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	st, err := New(nr.Mu3(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	const ues = 8
	for i := 0; i < ues; i++ {
		s := seeds.Mix(41, int64(i))
		sc := sim.StaticIndoor(s)
		sc.Fading = nil
		if _, err := st.Attach(SessionConfig{
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

// BenchmarkBatchedSlot measures the station's frame-barrier batch pass as
// composed from the public pieces: gather each established grant's active
// weights and channel model, run one WidebandBatch evaluation over the
// frame's UEs, and fold every row to a wideband entry SNR. This is the
// per-frame coordinator-side cost the batched planar backend adds (and the
// per-slot work it amortises away).
func BenchmarkBatchedSlot(b *testing.B) {
	const ues = 8
	mgrs := make([]*manager.Manager, ues)
	models := make([]*channel.Model, ues)
	for i := range mgrs {
		mgr, err := manager.New(fmt.Sprintf("m%d", i), antenna.NewULA(8, 28e9),
			link.DefaultBudget(), nr.Mu3(), manager.DefaultConfig(),
			rand.New(rand.NewSource(seeds.Mix(41, int64(i)))))
		if err != nil {
			b.Fatal(err)
		}
		sc := sim.StaticIndoor(seeds.Mix(41, int64(i)))
		if _, err := (sim.Runner{}).Run(sc, mgr); err != nil {
			b.Fatal(err)
		}
		if !mgr.Established() {
			b.Fatalf("manager %d not established after run", i)
		}
		m := sc.ChannelAt(sc.Duration)
		m.Reuse = true
		mgrs[i], models[i] = mgr, m
	}
	txLin, noiseLin := link.DefaultBudget().SNRTerms()
	ws := scratch.New()
	var batch channel.WidebandBatch
	var sink float64
	frame := func() {
		batch.Reset(mgrs[0].Offsets())
		for i := range mgrs {
			batch.Add(models[i], mgrs[i].ActiveWeightsView())
		}
		mk := ws.Mark()
		batch.Eval(ws)
		for r := range mgrs {
			re, im := batch.Row(r)
			sink = link.WidebandSNRdB(re, im, txLin, noiseLin)
		}
		ws.Release(mk)
	}
	frame() // warm caches and workspace
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame()
	}
	_ = sink
}

// BenchmarkStationFrameParallel measures the same workload sharded across
// the worker pool — the scaling the capacity experiment leans on.
func BenchmarkStationFrameParallel(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Workers = 4
	st, err := New(nr.Mu3(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	const ues = 8
	for i := 0; i < ues; i++ {
		s := seeds.Mix(41, int64(i))
		if _, err := st.Attach(SessionConfig{
			Scenario: sim.StaticIndoor(s),
			Budget:   sim.IndoorBudget(),
			Seed:     s,
		}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		st.AdvanceFrame()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.AdvanceFrame()
	}
}
