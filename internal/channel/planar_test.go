package channel

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"mmreliable/internal/antenna"
	"mmreliable/internal/cmx"
	"mmreliable/internal/env"
	"mmreliable/internal/scratch"
)

// TestSubcarrierOffsetsEdgeCases pins the grid builder's degenerate inputs:
// non-positive counts yield nil (not a panic), a single subcarrier sits at
// band center, and the exact-reseed boundaries (nsc a multiple of the
// 64-subcarrier phasor re-seed period) evaluate correctly — the case where
// the recurrence's last block ends exactly on a re-seed with no tail.
func TestSubcarrierOffsetsEdgeCases(t *testing.T) {
	if got := SubcarrierOffsets(400e6, 0); got != nil {
		t.Fatalf("nsc=0: got %v want nil", got)
	}
	if got := SubcarrierOffsets(400e6, -3); got != nil {
		t.Fatalf("nsc=-3: got %v want nil", got)
	}
	one := SubcarrierOffsets(400e6, 1)
	if len(one) != 1 || one[0] != 0 {
		t.Fatalf("nsc=1: got %v want [0]", one)
	}
	// Grid spacing and symmetry on a regular count.
	g := SubcarrierOffsets(400e6, 64)
	if len(g) != 64 {
		t.Fatalf("nsc=64: len %d", len(g))
	}
	if math.Abs(g[0]+g[63]) > 1e-6 || math.Abs((g[1]-g[0])-400e6/64) > 1e-6 {
		t.Fatalf("nsc=64 grid malformed: first %g last %g step %g", g[0], g[63], g[1]-g[0])
	}

	u := testArray()
	rng := rand.New(rand.NewSource(5))
	m := Cluster(rng, env.Band28GHz(), u, DefaultClusterParams())
	w := u.SingleBeam(0.12)
	// nsc around and exactly on the re-seed period: 63 (tail only),
	// 64/128/192 (exact multiples), 65/129 (one past). The planar path is
	// pinned against the reference evaluator — the same phase
	// decomposition, so the 1e-12 bound isolates the recurrence/re-seed
	// behavior — and against the direct per-subcarrier form, which also
	// charges the rounding of the grid step.
	t.Run("planar", func(t *testing.T) {
		for _, nsc := range []int{1, 2, 63, 64, 65, 128, 129, 192} {
			fOffs := SubcarrierOffsets(400e6, nsc)
			mm := m.Clone()
			if err := maxRelErr(wideband(mm, w, fOffs), referenceWideband(mm, w, fOffs)); err > 1e-12 {
				t.Fatalf("nsc=%d: planar vs reference rel err %.3g > 1e-12", nsc, err)
			}
		}
	})
	t.Run("direct", func(t *testing.T) {
		for _, nsc := range []int{1, 2, 63, 64, 65, 128, 129, 192} {
			fOffs := SubcarrierOffsets(400e6, nsc)
			mm := m.Clone()
			if err := maxRelErr(wideband(mm, w, fOffs), directWideband(mm, w, fOffs)); err > 1e-12 {
				t.Fatalf("nsc=%d: planar vs direct rel err %.3g > 1e-12", nsc, err)
			}
		}
	})
}

// referenceWideband is the reference wideband evaluator: the factored
// decomposition the planar kernels implement — the cached per-path
// coefficient times the beam dot, times the frequency ramp — in complex128
// arithmetic with an exact phasor per subcarrier instead of the recurrence.
// On a uniform grid the ramp is e^{j(θ₀+kΔθ)} with θ₀ = −2πf₀τ and
// Δθ = −2π·step·τ, the phases the recurrence advances through.
func referenceWideband(m *Model, w cmx.Vector, fOffs []float64) cmx.Vector {
	c := m.pathCache()
	n := m.Tx.N
	step, uniform := uniformStep(fOffs)
	out := make(cmx.Vector, len(fOffs))
	for l, base := range c.coef {
		var dot complex128
		for i := 0; i < n; i++ {
			dot += complex(c.steerRe[l*n+i], c.steerIm[l*n+i]) * w[i]
		}
		tau := c.delays[l]
		for k, f := range fOffs {
			th := -2 * math.Pi * f * tau
			if uniform {
				th = -2*math.Pi*fOffs[0]*tau + float64(k)*(-2*math.Pi*step*tau)
			}
			out[k] += base * dot * cmplx.Rect(1, th)
		}
	}
	return out
}

// TestEffectiveWidebandSplitEquivalence closes the triangle around
// TestEffectiveWidebandFactoredEquivalence (planar vs direct) on the full
// factored case set: the planar evaluator against the reference evaluator
// — the same decomposition, so the ≤1e-12 bound isolates the planar
// kernels' recurrence and arithmetic — and the reference evaluator against
// the direct per-subcarrier form.
func TestEffectiveWidebandSplitEquivalence(t *testing.T) {
	t.Run("planar", func(t *testing.T) {
		for _, tc := range factoredCases(t) {
			t.Run(tc.name, func(t *testing.T) {
				m := tc.m.Clone()
				if err := maxRelErr(wideband(m, tc.w, tc.fOffs), referenceWideband(m, tc.w, tc.fOffs)); err > 1e-12 {
					t.Fatalf("planar vs reference relative error %.3g > 1e-12", err)
				}
			})
		}
	})
	t.Run("reference", func(t *testing.T) {
		for _, tc := range factoredCases(t) {
			t.Run(tc.name, func(t *testing.T) {
				got := referenceWideband(tc.m.Clone(), tc.w, tc.fOffs)
				if err := maxRelErr(got, directWideband(tc.m, tc.w, tc.fOffs)); err > 1e-12 {
					t.Fatalf("reference vs direct relative error %.3g > 1e-12", err)
				}
			})
		}
	})
}

// TestRefreshLossPath pins the partial cache revalidation: when only
// ExtraLossDB moves between evaluations (the per-slot fading/blockage
// mutation), the loss-only refresh must produce results bit-identical to a
// full rebuild on a fresh model, and must not allocate once warm.
func TestRefreshLossPath(t *testing.T) {
	u := testArray()
	fOffs := SubcarrierOffsets(400e6, 64)
	w := u.SingleBeam(0.1)
	build := func(reuse bool) *Model {
		m := Cluster(rand.New(rand.NewSource(13)), env.Band28GHz(), u, DefaultClusterParams())
		m.Reuse = reuse
		return m
	}
	mr := build(true)
	dRe, dIm := make([]float64, len(fOffs)), make([]float64, len(fOffs))
	rRe, rIm := make([]float64, len(fOffs)), make([]float64, len(fOffs))
	mr.EffectiveWidebandSplitInto(w, fOffs, dRe, dIm) // build the cache once
	for i := 0; i < 6; i++ {
		for l := range mr.Paths {
			mr.Paths[l].ExtraLossDB = float64((i+l)%5) * 2.5 // loss only
		}
		mr.EffectiveWidebandSplitInto(w, fOffs, dRe, dIm)
		mf := build(false)
		for l := range mf.Paths {
			mf.Paths[l].ExtraLossDB = mr.Paths[l].ExtraLossDB
		}
		mf.EffectiveWidebandSplitInto(w, fOffs, rRe, rIm)
		if k := samePlanar(dRe, dIm, rRe, rIm); k >= 0 {
			t.Fatalf("iter %d subcarrier %d: refresh (%g,%g) vs rebuild (%g,%g)", i, k, dRe[k], dIm[k], rRe[k], rIm[k])
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		i++
		mr.Paths[0].ExtraLossDB = float64(i%7) * 2
		mr.EffectiveWidebandSplitInto(w, fOffs, dRe, dIm)
	})
	if allocs != 0 {
		t.Fatalf("loss-only refresh allocates %.1f objects/op, want 0", allocs)
	}
}

// TestCopyStateFromInvalidation pins the RxWeights-aware invalidation:
// copies that keep the weight values must reuse the cache (zero allocs,
// covered in TestCopyStateFrom) yet still track every snapshot-visible
// mutation; copies that change weight values must invalidate.
func TestCopyStateFromInvalidation(t *testing.T) {
	u := testArray()
	fOffs := SubcarrierOffsets(400e6, 64)
	w := u.SingleBeam(0.1)
	src := Cluster(rand.New(rand.NewSource(21)), env.Band28GHz(), u, DefaultClusterParams())
	src.Rx = antenna.NewULA(4, 28e9)
	src.RxWeights = src.Rx.SingleBeam(0.2)

	dstM := &Model{Reuse: true}
	dstM.CopyStateFrom(src)
	gRe, gIm := make([]float64, len(fOffs)), make([]float64, len(fOffs))
	wRe, wIm := make([]float64, len(fOffs)), make([]float64, len(fOffs))
	check := func(name string) {
		t.Helper()
		dstM.CopyStateFrom(src)
		dstM.EffectiveWidebandSplitInto(w, fOffs, gRe, gIm)
		src.Clone().EffectiveWidebandSplitInto(w, fOffs, wRe, wIm)
		if k := samePlanar(gRe, gIm, wRe, wIm); k >= 0 {
			t.Fatalf("%s: subcarrier %d copy (%g,%g) vs fresh (%g,%g)", name, k, gRe[k], gIm[k], wRe[k], wIm[k])
		}
	}
	check("initial")
	src.Paths[0].ExtraLossDB += 12
	check("loss mutation")
	src.Paths[1].ExtraPhase += 0.9
	check("phase mutation")
	src.RxWeights = src.Rx.SingleBeam(-0.15) // new values: must invalidate
	check("rx-weights value change")
	same := src.Rx.SingleBeam(-0.15) // equal values, different backing array
	src.RxWeights = same
	check("rx-weights equal-value rebind")
}

// TestWidebandBatch pins the batch evaluator: rows match the per-model
// planar evaluation exactly (same kernel, same arithmetic), Row panics
// before Eval, and re-Reset + re-Add reuses registrations without leaking
// rows across frames.
func TestWidebandBatch(t *testing.T) {
	u := testArray()
	fOffs := SubcarrierOffsets(400e6, 64)
	rng := rand.New(rand.NewSource(17))
	models := []*Model{
		Cluster(rng, env.Band28GHz(), u, DefaultClusterParams()),
		Cluster(rng, env.Band28GHz(), u, DefaultClusterParams()),
		twoPath(3, -0.4),
	}
	weights := []cmx.Vector{u.SingleBeam(0.1), u.SingleBeam(-0.3), u.SingleBeam(0)}

	var b WidebandBatch
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Row before Eval did not panic")
			}
		}()
		b.Reset(fOffs)
		b.Add(models[0], weights[0])
		b.Row(0)
	}()

	ws := scratch.New()
	for frame := 0; frame < 3; frame++ {
		b.Reset(fOffs)
		for i, m := range models {
			if got := b.Add(m, weights[i]); got != i {
				t.Fatalf("Add returned row %d want %d", got, i)
			}
		}
		mk := ws.Mark()
		b.Eval(ws)
		for i, m := range models {
			re, im := b.Row(i)
			wantRe := make([]float64, len(fOffs))
			wantIm := make([]float64, len(fOffs))
			m.EffectiveWidebandSplitInto(weights[i], fOffs, wantRe, wantIm)
			for k := range wantRe {
				if re[k] != wantRe[k] || im[k] != wantIm[k] {
					t.Fatalf("frame %d row %d subcarrier %d: batch (%g,%g) vs direct (%g,%g)",
						frame, i, k, re[k], im[k], wantRe[k], wantIm[k])
				}
			}
		}
		ws.Release(mk)
		// Mutate between frames so each Eval sees fresh state.
		models[0].Paths[0].ExtraLossDB = float64(frame+1) * 4
	}

	// Steady state (registrations at high-water, workspace warm): no allocs.
	allocs := testing.AllocsPerRun(50, func() {
		b.Reset(fOffs)
		for i, m := range models {
			b.Add(m, weights[i])
		}
		mk := ws.Mark()
		b.Eval(ws)
		_, _ = b.Row(2)
		ws.Release(mk)
	})
	if allocs != 0 {
		t.Fatalf("batch steady state allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkEffectiveWidebandBatch measures the batched planar hot path: 8
// models × 64 subcarriers per Eval, the frame-barrier shape the station
// runs.
func BenchmarkEffectiveWidebandBatch(b *testing.B) {
	u := testArray()
	fOffs := SubcarrierOffsets(400e6, 64)
	rng := rand.New(rand.NewSource(23))
	const n = 8
	models := make([]*Model, n)
	weights := make([]cmx.Vector, n)
	for i := range models {
		models[i] = Cluster(rng, env.Band28GHz(), u, DefaultClusterParams())
		models[i].Reuse = true
		weights[i] = u.SingleBeam(0.05 * float64(i))
	}
	ws := scratch.New()
	var batch WidebandBatch
	batch.Reset(fOffs)
	for i := range models {
		batch.Add(models[i], weights[i])
	}
	mk := ws.Mark()
	batch.Eval(ws) // warm caches and workspace
	ws.Release(mk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Reset(fOffs)
		for k := range models {
			batch.Add(models[k], weights[k])
		}
		m := ws.Mark()
		batch.Eval(ws)
		ws.Release(m)
	}
}
