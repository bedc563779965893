package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sample is one reported metric: its value, unit, and how many
// measurements it summarises (1 for a count or a single timing).
type sample struct {
	name  string
	value float64
	unit  string
	n     int
}

// report is what one workload run produces: end-to-end metrics (always),
// per-layer metrics (traced runs), the operation tally, the simulated
// fingerprint, and every failed correctness check.
type report struct {
	e2e         []sample
	layer       []sample
	notes       []sample // workload-specific names of the metrics, printed as text only
	attempted   int
	failed      int
	fingerprint string
	problems    []string
}

func (r *report) addE2E(name string, v float64, unit string, n int) {
	r.e2e = append(r.e2e, sample{name, v, unit, n})
}

func (r *report) addNote(name string, v float64, unit string, n int) {
	r.notes = append(r.notes, sample{name, v, unit, n})
}

func (r *report) addLayer(name string, v float64, unit string, n int) {
	r.layer = append(r.layer, sample{name, v, unit, n})
}

// check records one correctness check; a failed check counts as a failed
// operation.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, leaving xs as it was. NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	f := pos - float64(lo)
	return xs[lo]*(1-f) + xs[lo+1]*f
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// finite reports whether every value is a finite number.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)*1e-6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// window brackets a timed interval with the process-level readings the
// per-layer metrics need: wall time, CPU time, and allocator/GC counters.
type window struct {
	wall time.Time
	cpu  float64
	mem  runtime.MemStats
}

func openWindow() window {
	var w window
	runtime.ReadMemStats(&w.mem)
	w.cpu = cpuSeconds()
	w.wall = time.Now()
	return w
}

// windowDelta is what happened between openWindow and close.
type windowDelta struct {
	wallS, cpuS    float64
	mallocs, bytes uint64
	gcs            uint32
	gcPauseMs      float64
}

func (w window) close() windowDelta {
	wall := time.Since(w.wall).Seconds()
	cpu := cpuSeconds()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return windowDelta{
		wallS:     wall,
		cpuS:      cpu - w.cpu,
		mallocs:   m.Mallocs - w.mem.Mallocs,
		bytes:     m.TotalAlloc - w.mem.TotalAlloc,
		gcs:       m.NumGC - w.mem.NumGC,
		gcPauseMs: float64(m.PauseTotalNs-w.mem.PauseTotalNs) / 1e6,
	}
}

// cpuBusy is the window's process CPU time over the CPU time its
// GOMAXPROCS threads could have used: below 1 is idle time (barriers,
// waits for the next request).
func (d windowDelta) cpuBusy() float64 {
	return d.cpuS / (d.wallS * float64(runtime.GOMAXPROCS(0)))
}

// addRuntime reports the window's GC activity.
func (r *report) addRuntime(d windowDelta) {
	r.addLayer("runtime.gc_cycles", float64(d.gcs), "count", 1)
	r.addLayer("runtime.gc_pause_ms", d.gcPauseMs, "ms", int(d.gcs))
}

// liveHeapMB collects garbage twice (the second pass also empties the
// sync.Pool victim caches) and returns the live heap in MiB. Call it while
// the workload's state is still referenced.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// heapPeak tracks the largest live heap any garbage collection marked
// while it watches: a finalizer, re-armed after every cycle, reads the
// live heap of the cycle that just ended. It measures the working set of
// code that drops its state before it returns.
type heapPeak struct {
	stopped atomic.Bool
	mu      sync.Mutex
	max     uint64
	cycles  int
}

// gcTick is the object whose finalizer runs once per GC cycle; the pointer
// field keeps it out of the tiny allocator, whose finalizers may not run.
type gcTick struct{ p *heapPeak }

func watchHeap() *heapPeak {
	p := &heapPeak{}
	p.arm()
	return p
}

func (p *heapPeak) arm() {
	runtime.SetFinalizer(&gcTick{p}, func(t *gcTick) {
		if t.p.stopped.Load() {
			return
		}
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		t.p.mu.Lock()
		t.p.max = max(t.p.max, s[0].Value.Uint64())
		t.p.cycles++
		t.p.mu.Unlock()
		t.p.arm()
	})
}

// stop ends the watch and returns the peak live heap in MiB and the
// number of GC cycles it saw.
func (p *heapPeak) stop() (float64, int) {
	p.stopped.Store(true)
	p.mu.Lock()
	defer p.mu.Unlock()
	return float64(p.max) / (1 << 20), p.cycles
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
