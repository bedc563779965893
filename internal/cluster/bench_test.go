package cluster

import (
	"testing"

	"mmreliable/internal/env"
	"mmreliable/internal/nr"
	"mmreliable/internal/sim"
)

// BenchmarkClusterFrame measures the CoMP coordinator's steady-state cost
// through the public cluster API: a 2-cell/2-UE hall deployment
// (single-worker stations, tracking ablated as in the alloc pin), one 20 ms
// cluster frame per iteration — both member stations' slot loops plus the
// coordinator's monitor/harvest work.
func BenchmarkClusterFrame(b *testing.B) {
	e, poses := env.MultiCellHall(env.Band28GHz(), 2)
	ccfg := DefaultConfig()
	ccfg.Seed = 31
	ccfg.Station.Workers = 1
	ccfg.Station.Manager.ProactiveTracking = false
	cl, err := New(nr.Mu3(), ccfg, Deployment{
		Env: e, Cells: poses, Budget: sim.IndoorBudget(),
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, pos := range env.HallUEPositions(2) {
		if _, err := cl.AddUE(UEConfig{Pos: pos}); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		cl.AdvanceFrame() // admit, establish both legs, warm buffers
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.AdvanceFrame()
	}
}
