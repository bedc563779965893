package station

import (
	"testing"

	"mmreliable/internal/nr"
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

// BenchmarkHybridSlot measures the hybrid SDMA tier's steady-state per-
// session-slot cost: 4 fading-free spread UEs forced into shared slots
// (thresholds wide open) on the inline single-worker path, so every owned
// data slot runs the per-slot MMSE combine. Must report 0 allocs/op —
// TestHybridSlotAllocs pins the same loop exactly.
func BenchmarkHybridSlot(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.SDMA = SDMAConfig{Chains: 4, MinSeparationDeg: 0, MinSINRdB: -100}
	st, err := New(nr.Mu3(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	const ues = 4
	for i := 0; i < ues; i++ {
		s := seeds.Mix(43, int64(i))
		sc := sim.SpreadStaticIndoor(s, float64(i)/(ues-1))
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
