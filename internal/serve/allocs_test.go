package serve

import (
	"testing"
)

// TestStepZeroAllocSteadyState pins the acceptance criterion that the
// daemon's frame step allocates nothing once the city is quiescent and the
// control plane is idle: the queue drain (empty-channel select), the script
// cursor (exhausted), and the metro's own steady state must all stay off
// the allocator. Churn off, status off — the batch zero-alloc fixture.
func TestStepZeroAllocSteadyState(t *testing.T) {
	cfg := testConfig(1)
	cfg.Metro.ChurnArrivalRate = 0
	cfg.StatusEvery = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 40; i++ { // warm caches: monitor rows, batch scratch, EWMA state
		s.step()
	}
	if avg := testing.AllocsPerRun(100, s.step); avg != 0 {
		t.Errorf("daemon step allocates %.1f objects/frame in steady state, want 0", avg)
	}
}
