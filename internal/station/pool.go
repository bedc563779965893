package station

import (
	"sync"
	"sync/atomic"

	"mmreliable/internal/hybrid"
	"mmreliable/internal/scratch"
)

// runSessions steps every scheduling unit planned for the frame starting
// at t0, sharded across the worker pool. Workers claim whole units (a
// group's members must step in lockstep within a slot) with an atomic
// counter — which worker runs which unit is scheduling-dependent, but
// irrelevant to the output: a unit's entire world is unit-private, and the
// per-worker scratch arenas and combiners hand out zeroed checkouts, so a
// unit computes bit-identical results on any worker. The WaitGroup barrier
// publishes all session state back to the coordinator.
func (st *Station) runSessions(t0 float64) {
	n := len(st.units)
	if n == 0 {
		return
	}
	w := st.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		// Inline path: zero goroutines, zero allocations — the path the
		// steady-state allocation pins (TestStationSlotAllocs,
		// TestHybridSlotAllocs) exercise.
		ws, cb := st.ws[0], st.combiner(0)
		for u, unit := range st.units {
			st.runUnit(u, unit, t0, ws, cb)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func(ws *scratch.Workspace, cb *hybrid.Combiner) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				st.runUnit(i, st.units[i], t0, ws, cb)
			}
		}(st.ws[k], st.combiner(k))
	}
	wg.Wait()
}

// combiner returns worker k's digital stage, nil when Chains = 1 (units
// never have two members, so nothing combines).
func (st *Station) combiner(k int) *hybrid.Combiner {
	if st.combiners == nil {
		return nil
	}
	return st.combiners[k]
}
