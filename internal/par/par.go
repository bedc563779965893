// Package par is the process's one scheduler: a pool of parked helper
// goroutines that every parallel loop in the repository runs on — metro
// shards, station scheduling units, Monte-Carlo trials, mmsim replays.
//
// Only the outermost For fans out. A For that finds the pool serving
// another For (a station stepped inside a metro shard, or an unrelated
// concurrent caller) runs inline on its caller, so nested loops never
// start goroutines. Helpers are started lazily, up to the largest
// workers−1 any caller has asked for, and stay parked for the life of the
// process.
package par

import (
	"sync"
	"sync/atomic"
)

// Pool state. busy admits one For at a time to the helpers. That For's
// caller writes job before waking the helpers and clears it after
// done.Wait, so every helper read of job is ordered between the two.
var (
	busy atomic.Bool
	wake []chan struct{} // helper k parks on wake[k-1]
	done sync.WaitGroup
	job  struct {
		fn   func(worker, i int)
		n    int64
		next atomic.Int64
	}
)

// For calls fn(worker, i) once for every i in [0, n) and returns when all
// calls have returned. Up to workers goroutines claim indices from one
// atomic cursor; the caller takes part as worker 0. Worker indices are
// below min(workers, n) and each is used by one goroutine at a time, so fn
// may keep per-worker state indexed by worker. Which worker runs which
// index depends on scheduling, so fn's results must not.
//
// With workers ≤ 1, or while the pool serves another For, every call runs
// inline on the caller as worker 0, in index order. With a prebound fn,
// For allocates only when it starts a helper.
func For(workers, n int, fn func(worker, i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 || !busy.CompareAndSwap(false, true) {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	for len(wake) < workers-1 {
		c := make(chan struct{}, 1)
		wake = append(wake, c)
		go helper(len(wake), c)
	}
	job.fn, job.n = fn, int64(n)
	job.next.Store(0)
	done.Add(workers - 1)
	for _, c := range wake[:workers-1] {
		c <- struct{}{}
	}
	drain(0)
	done.Wait()
	job.fn = nil
	busy.Store(false)
}

// helper is pool worker k: it drains one For's indices per wake-up.
func helper(k int, c chan struct{}) {
	for range c {
		drain(k)
		done.Done()
	}
}

// drain claims and runs indices of the current job until none are left.
func drain(worker int) {
	for {
		i := job.next.Add(1) - 1
		if i >= job.n {
			return
		}
		job.fn(worker, int(i))
	}
}
