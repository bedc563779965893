package channel

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"

	"mmreliable/internal/antenna"
	"mmreliable/internal/cmx"
	"mmreliable/internal/env"
)

// directWideband is the naive reference: one Effective call per subcarrier.
func directWideband(m *Model, w cmx.Vector, fOffs []float64) cmx.Vector {
	out := make(cmx.Vector, len(fOffs))
	for i, f := range fOffs {
		out[i] = m.Effective(w, f)
	}
	return out
}

// maxRelErr returns max_k |a[k]−b[k]| / max_k |b[k]|.
func maxRelErr(a, b cmx.Vector) float64 {
	var maxDiff, scale float64
	for k := range a {
		if d := cmplx.Abs(a[k] - b[k]); d > maxDiff {
			maxDiff = d
		}
		if s := cmplx.Abs(b[k]); s > scale {
			scale = s
		}
	}
	if scale == 0 {
		return maxDiff
	}
	return maxDiff / scale
}

// factoredCases builds a representative set of channel/beam/grid configs:
// scripted two-path, random clusters, blockage (ExtraLossDB mutated after
// construction), a directional UE with RxWeights, and a dead path.
func factoredCases(t *testing.T) []struct {
	name  string
	m     *Model
	w     cmx.Vector
	fOffs []float64
} {
	t.Helper()
	u := testArray()
	rng := rand.New(rand.NewSource(7))
	uniform := SubcarrierOffsets(400e6, 64)
	nonUniform := make([]float64, 64)
	copy(nonUniform, uniform)
	nonUniform[13] += 1.7e3 // break the grid well beyond the ulp tolerance
	nonUniform[49] -= 4.2e3

	cluster := Cluster(rng, env.Band28GHz(), u, DefaultClusterParams())
	blocked := cluster.Clone()
	blocked.Paths[0].ExtraLossDB = 25 // blockage applied by direct mutation
	blocked.Paths[0].ExtraPhase = 0.3

	withUE := Cluster(rng, env.Band28GHz(), u, DefaultClusterParams())
	withUE.Rx = antenna.NewULA(4, 28e9)
	withUE.RxWeights = withUE.Rx.SingleBeam(0.2)

	dead := twoPath(3, 0.5)
	dead.Paths[1].ExtraLossDB = math.Inf(1) // amp underflows to 0

	zeroDelay := FromSpecs(env.Band28GHz(), u, 80, []PathSpec{
		{AoDDeg: 0, DelayNs: 0},
		{AoDDeg: 25, RelAttDB: 4, PhaseRad: 1.1, DelayNs: 35},
	})
	zeroDelay.Paths[0].Delay = 0 // exercise the τ=0 fast path

	mb := u.SingleBeam(0.1)
	random := make(cmx.Vector, u.N)
	for i := range random {
		random[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}

	return []struct {
		name  string
		m     *Model
		w     cmx.Vector
		fOffs []float64
	}{
		{"two-path/uniform", twoPath(3, -0.7), mb, uniform},
		{"cluster/uniform", cluster, mb, uniform},
		{"cluster/non-uniform", cluster, random, nonUniform},
		{"blockage/uniform", blocked, mb, uniform},
		{"rx-weights/uniform", withUE, mb, uniform},
		{"rx-weights/non-uniform", withUE, random, nonUniform},
		{"dead-path/uniform", dead, mb, uniform},
		{"zero-delay/uniform", zeroDelay, mb, uniform},
		{"single-subcarrier", cluster, mb, []float64{0}},
		{"two-subcarriers", cluster, mb, []float64{-1e8, 1e8}},
	}
}

// TestEffectiveWidebandFactoredEquivalence pins the factored kernel to the
// direct per-subcarrier evaluation at ≤1e-12 relative error — the acceptance
// bound of the phasor-recurrence rewrite.
func TestEffectiveWidebandFactoredEquivalence(t *testing.T) {
	for _, tc := range factoredCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.m.EffectiveWidebandInto(tc.w, tc.fOffs, nil)
			want := directWideband(tc.m, tc.w, tc.fOffs)
			if err := maxRelErr(got, want); err > 1e-12 {
				t.Fatalf("factored vs direct relative error %.3g > 1e-12", err)
			}
			// Into variant with a reused buffer must agree exactly.
			buf := make(cmx.Vector, len(tc.fOffs))
			for i := range buf {
				buf[i] = complex(99, 99) // stale content must be overwritten
			}
			got2 := tc.m.EffectiveWidebandInto(tc.w, tc.fOffs, buf)
			for k := range got {
				if got2[k] != got[k] {
					t.Fatalf("Into variant diverges at subcarrier %d", k)
				}
			}
		})
	}
}

// TestCacheInvalidationOnMutation verifies the epoch/snapshot contract: after
// the cache is built, direct mutation of ExtraLossDB/ExtraPhase/Delay or
// rebinding RxWeights must be reflected in the next evaluation.
func TestCacheInvalidationOnMutation(t *testing.T) {
	u := testArray()
	fOffs := SubcarrierOffsets(400e6, 64)
	w := u.SingleBeam(0)

	m := twoPath(3, 0.4)
	_ = m.EffectiveWidebandInto(w, fOffs, nil) // build the cache

	check := func(name string) {
		t.Helper()
		got := m.EffectiveWidebandInto(w, fOffs, nil)
		fresh := m.Clone() // cold cache
		want := directWideband(fresh, w, fOffs)
		if err := maxRelErr(got, want); err > 1e-12 {
			t.Fatalf("%s: stale cache survived mutation (rel err %.3g)", name, err)
		}
	}

	m.Paths[1].ExtraLossDB += 25 // blockage, snapshot-detected
	check("ExtraLossDB")
	m.Paths[1].ExtraPhase += 1.3
	check("ExtraPhase")
	m.Paths[0].Delay += 5e-9
	check("Delay")
	m.Paths[1].AoD += 0.05
	check("AoD")

	// RxWeights rebinding is caught by slice identity...
	m.Rx = antenna.NewULA(4, 28e9)
	m.RxWeights = m.Rx.SingleBeam(0.3)
	check("RxWeights bind")
	m.RxWeights = m.Rx.SingleBeam(-0.2)
	check("RxWeights rebind")
	// ...but in-place element edits need the explicit escape hatch.
	m.RxWeights[0] *= complex(0, 1)
	m.InvalidateCache()
	check("RxWeights in-place + InvalidateCache")
}

// TestModelConcurrentReadOnly exercises the lock-free cache under concurrent
// read-only use (run with -race in CI): many goroutines share one Model and
// may race to build the first cache.
func TestModelConcurrentReadOnly(t *testing.T) {
	u := testArray()
	rng := rand.New(rand.NewSource(3))
	m := Cluster(rng, env.Band28GHz(), u, DefaultClusterParams())
	fOffs := SubcarrierOffsets(400e6, 64)
	w := u.SingleBeam(0.15)
	want := directWideband(m.Clone(), w, fOffs)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make(cmx.Vector, len(fOffs))
			for it := 0; it < 50; it++ {
				got := m.EffectiveWidebandInto(w, fOffs, buf)
				if err := maxRelErr(got, want); err > 1e-12 {
					errs <- nil
					return
				}
				_ = m.PerAntennaCSI(0)
			}
		}()
	}
	wg.Wait()
	close(errs)
	if len(errs) > 0 {
		t.Fatal("concurrent evaluation diverged from direct form")
	}
}

// TestEffectiveWidebandIntoAllocs pins the steady-state hot path to zero
// allocations once the cache is warm and a dst buffer is supplied.
func TestEffectiveWidebandIntoAllocs(t *testing.T) {
	u := testArray()
	rng := rand.New(rand.NewSource(11))
	m := Cluster(rng, env.Band28GHz(), u, DefaultClusterParams())
	fOffs := SubcarrierOffsets(400e6, 64)
	w := u.SingleBeam(0.1)
	dst := make(cmx.Vector, len(fOffs))
	m.EffectiveWidebandInto(w, fOffs, dst) // warm the cache
	allocs := testing.AllocsPerRun(100, func() {
		m.EffectiveWidebandInto(w, fOffs, dst)
	})
	if allocs != 0 {
		t.Fatalf("EffectiveWidebandInto allocates %.1f objects/op, want 0", allocs)
	}
}

// TestReuseCacheRecycling pins the Reuse contract: after a path-state
// mutation, the in-place cache rebuild (a) produces results identical to a
// fresh non-Reuse model and (b) allocates nothing once warm.
func TestReuseCacheRecycling(t *testing.T) {
	u := testArray()
	fOffs := SubcarrierOffsets(400e6, 64)
	w := u.SingleBeam(0.1)
	build := func(reuse bool) *Model {
		m := Cluster(rand.New(rand.NewSource(7)), env.Band28GHz(), u, DefaultClusterParams())
		m.Reuse = reuse
		return m
	}
	mr, mf := build(true), build(false)
	dst := make(cmx.Vector, len(fOffs))
	ref := make(cmx.Vector, len(fOffs))
	for i := 0; i < 5; i++ {
		mr.Paths[0].ExtraLossDB = float64(i) * 3
		mf.Paths[0].ExtraLossDB = float64(i) * 3
		mr.Paths[1].ExtraPhase = float64(i) * 0.7
		mf.Paths[1].ExtraPhase = float64(i) * 0.7
		mr.EffectiveWidebandInto(w, fOffs, dst)
		mf.EffectiveWidebandInto(w, fOffs, ref)
		for k := range dst {
			if dst[k] != ref[k] {
				t.Fatalf("iter %d subcarrier %d: reuse %v vs fresh %v", i, k, dst[k], ref[k])
			}
		}
	}
	// Steady-state mutate→rebuild→evaluate must not allocate.
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		i++
		mr.Paths[0].ExtraLossDB = float64(i%7) * 2
		mr.EffectiveWidebandInto(w, fOffs, dst)
	})
	if allocs != 0 {
		t.Fatalf("Reuse rebuild allocates %.1f objects/op, want 0", allocs)
	}
}

// TestCopyStateFrom pins that CopyStateFrom mirrors src exactly, reuses the
// receiver's buffers, and never aliases src's mutable state.
func TestCopyStateFrom(t *testing.T) {
	u := testArray()
	fOffs := SubcarrierOffsets(400e6, 64)
	w := u.SingleBeam(0.1)
	src := Cluster(rand.New(rand.NewSource(9)), env.Band28GHz(), u, DefaultClusterParams())
	src.RxWeights = cmx.Vector{1} // exercise the RxWeights copy
	src.Rx = antenna.NewULA(1, 28e9)

	dstM := &Model{Reuse: true}
	dstM.CopyStateFrom(src)
	got := dstM.EffectiveWidebandInto(w, fOffs, nil)
	want := src.EffectiveWidebandInto(w, fOffs, nil)
	for k := range got {
		if got[k] != want[k] {
			t.Fatalf("subcarrier %d: copy %v vs src %v", k, got[k], want[k])
		}
	}
	// Mutating the copy must not touch src.
	before := src.Paths[0].ExtraLossDB
	dstM.Paths[0].ExtraLossDB += 10
	if src.Paths[0].ExtraLossDB != before {
		t.Fatal("CopyStateFrom aliased Paths with src")
	}
	dstM.RxWeights[0] = 2
	if src.RxWeights[0] == 2 {
		t.Fatal("CopyStateFrom aliased RxWeights with src")
	}
	// Steady-state CopyStateFrom + evaluation must not allocate.
	dstM.CopyStateFrom(src)
	dstM.EffectiveWidebandInto(w, fOffs, got)
	allocs := testing.AllocsPerRun(100, func() {
		dstM.CopyStateFrom(src)
		dstM.EffectiveWidebandInto(w, fOffs, got)
	})
	if allocs != 0 {
		t.Fatalf("CopyStateFrom steady state allocates %.1f objects/op, want 0", allocs)
	}
}
