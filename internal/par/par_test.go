package par

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestForRunsEveryIndexOnce: every index runs exactly once, on a worker
// index below min(workers, n), at every pool width and loop size.
func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, 1000} {
			hits := make([]atomic.Int32, n)
			var badWorker atomic.Int32
			badWorker.Store(-1)
			For(workers, n, func(worker, i int) {
				if worker < 0 || worker >= min(workers, n) {
					badWorker.Store(int32(worker))
				}
				hits[i].Add(1)
			})
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, h)
				}
			}
			if w := badWorker.Load(); w >= 0 {
				t.Fatalf("workers=%d n=%d: worker index %d out of range", workers, n, w)
			}
		}
	}
}

// TestForNestedCompletes: a For inside a task finds the pool busy and
// runs inline on its caller — worker 0, in index order — so every nested
// index runs once and no nested loop reaches the helpers.
func TestForNestedCompletes(t *testing.T) {
	const outer, inner = 16, 50
	hits := make([]atomic.Int32, outer*inner)
	var notInline atomic.Bool
	For(4, outer, func(_, o int) {
		next := 0
		For(4, inner, func(worker, i int) {
			if worker != 0 || i != next {
				notInline.Store(true)
			}
			next++
			hits[o*inner+i].Add(1)
		})
	})
	for i := range hits {
		if h := hits[i].Load(); h != 1 {
			t.Fatalf("nested index %d ran %d times", i, h)
		}
	}
	if notInline.Load() {
		t.Error("a nested For did not run inline on its caller as worker 0 in index order")
	}
}

// TestForConcurrentCallers: unrelated goroutines calling For at once all
// finish with every index run once; whichever finds the pool busy runs its
// loop inline on its own goroutine. Run under -race.
func TestForConcurrentCallers(t *testing.T) {
	const callers, rounds, n = 2, 50, 200
	var wg sync.WaitGroup
	wg.Add(callers)
	for c := 0; c < callers; c++ {
		go func() {
			defer wg.Done()
			sums := make([]int, n)
			for r := 0; r < rounds; r++ {
				For(2, n, func(_, i int) { sums[i]++ })
			}
			for i, s := range sums {
				if s != rounds {
					t.Errorf("index %d ran %d times over %d rounds", i, s, rounds)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestForZeroAlloc: once the pool has its helper, a For with a prebound fn
// allocates nothing — the property the frame loops' zero-alloc pins rest
// on.
func TestForZeroAlloc(t *testing.T) {
	var sink [64]int
	fn := func(_, i int) { sink[i]++ }
	run := func() { For(2, len(sink), fn) }
	run() // start the helper outside the measured window
	if avg := testing.AllocsPerRun(100, run); avg != 0 {
		t.Errorf("For allocates %.1f objects per call, want 0", avg)
	}
}
