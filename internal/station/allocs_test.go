package station

import (
	"fmt"
	"runtime"
	"testing"

	"mmreliable/internal/nr"
	"mmreliable/internal/seeds"
	"mmreliable/internal/sim"
)

// heapBytesPerRun measures the mean heap bytes allocated per call of f —
// the companion to testing.AllocsPerRun for the bytes/op half of the
// zero-alloc contract (a slow background leak shows up in bytes long
// before it rounds up to one alloc per run).
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

// TestStationSlotAllocs pins the steady-state frame loop at zero
// allocations per frame: persistent channel models (Model.Reuse +
// ChannelInto), the managers' retained buffers, preallocated scheduler
// scratch, and par's parked pool keep AdvanceFrame off the allocator
// entirely once every session is established — inline at one worker and
// fanned out at two.
func TestStationSlotAllocs(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			pinStationSlotAllocs(t, workers)
		})
	}
}

func pinStationSlotAllocs(t *testing.T, workers int) {
	cfg := DefaultConfig()
	cfg.Workers = workers
	st, err := New(nr.Mu3(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 2; i++ {
		s := seeds.Mix(31, int64(i))
		// Fading-free static link: the quiescent steady state. (Fading
		// jitter periodically triggers re-alignment rounds, and a weight
		// recomposition intentionally allocates: the fresh weight vector
		// escapes into the front end and the channel snapshot.)
		sc := sim.StaticIndoor(s)
		sc.Fading = nil
		if _, err := st.Attach(SessionConfig{
			Scenario: sc,
			Budget:   sim.IndoorBudget(),
			Seed:     s,
		}); err != nil {
			t.Fatalf("Attach: %v", err)
		}
	}
	// Warm: initial SSB training, first maintenance rounds, buffer growth.
	for i := 0; i < 20; i++ {
		st.AdvanceFrame()
	}
	avg := testing.AllocsPerRun(10, st.AdvanceFrame)
	if avg != 0 {
		t.Fatalf("AdvanceFrame allocates %.1f allocs/frame in steady state, want 0", avg)
	}
	// Bytes too: rare amortized appends (meter episode buffers, tracker
	// history growth) used to leak ~60 B/frame while still rounding to
	// 0 allocs/op. The steady state must be byte-clean, not just
	// alloc-count-clean.
	if bytes := heapBytesPerRun(50, st.AdvanceFrame); bytes != 0 {
		t.Fatalf("AdvanceFrame allocates %.1f B/frame in steady state, want 0", bytes)
	}
}
