package superres

import (
	"math/rand"
	"testing"

	"mmreliable/internal/antenna"
	"mmreliable/internal/channel"
	"mmreliable/internal/env"
	"mmreliable/internal/nr"
	"mmreliable/internal/scratch"
)

// TestExtractIntoMatchesExtract pins ExtractInto's workspace handling: a
// nil workspace (pooled scratch, heap-allocated result) and a caller-owned
// one produce the identical Result, and a recycled workspace reproduces it
// bit for bit.
func TestExtractIntoMatchesExtract(t *testing.T) {
	s := newSounder(t, 2e-6, 9)
	cir, _ := measure(t, s, 3, 10)
	rel := []float64{0, 10e-9}
	a, err := ExtractInto(cir, rel, s.SampleSpacing(), DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ws := scratch.New()
	c, err := ExtractInto(cir, rel, s.SampleSpacing(), DefaultConfig(), ws)
	if err != nil {
		t.Fatal(err)
	}
	// A recycled workspace must reproduce the same result bit-for-bit
	// (zeroed checkouts: no state leaks between extractions).
	ws.Reset()
	d, err := ExtractInto(cir, rel, s.SampleSpacing(), DefaultConfig(), ws)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range []struct {
		name string
		x    Result
	}{{"workspace", c}, {"recycled workspace", d}} {
		if a.BaseDelay != pair.x.BaseDelay || a.Residual != pair.x.Residual {
			t.Fatalf("%s: fit diverges: base %g vs %g, residual %g vs %g",
				pair.name, a.BaseDelay, pair.x.BaseDelay, a.Residual, pair.x.Residual)
		}
		for k := range a.Amp {
			if a.Amp[k] != pair.x.Amp[k] || a.Power[k] != pair.x.Power[k] {
				t.Fatalf("%s: beam %d amplitude diverges: %v vs %v", pair.name, k, a.Amp[k], pair.x.Amp[k])
			}
		}
	}
}

// TestExtractIntoAllocs pins the tentpole acceptance criterion: ExtractInto
// with a caller-owned workspace performs ZERO heap allocations per fit in
// steady state — the FFT, phase ramps, Gram, Cholesky factor, alignment
// search, and the Result's Amp/Power all live in the arena.
func TestExtractIntoAllocs(t *testing.T) {
	s := newSounder(t, 2e-6, 9)
	cir, _ := measure(t, s, 3, 10)
	rel := []float64{0, 10e-9}
	cfg := DefaultConfig()
	ws := scratch.New()
	spacing := s.SampleSpacing()
	// Warm the arena: the first fit grows the size-classed chunks.
	mk := ws.Mark()
	if _, err := ExtractInto(cir, rel, spacing, cfg, ws); err != nil {
		t.Fatal(err)
	}
	ws.Release(mk)
	allocs := testing.AllocsPerRun(50, func() {
		mk := ws.Mark()
		if _, err := ExtractInto(cir, rel, spacing, cfg, ws); err != nil {
			t.Fatal(err)
		}
		ws.Release(mk)
	})
	if allocs != 0 {
		t.Fatalf("ExtractInto with workspace allocates %.1f per op, want 0", allocs)
	}
}

// BenchmarkSuperresExtractInto is the frequency-domain fit on a
// per-worker workspace — the steady-state maintenance-tick cost (0
// allocs/op, pinned by TestExtractIntoAllocs as well) — on a three-path
// scripted channel probed under its MRT beam.
func BenchmarkSuperresExtractInto(b *testing.B) {
	m := channel.FromSpecs(env.Band28GHz(), antenna.NewULA(8, 28e9), 80, []channel.PathSpec{
		{AoDDeg: 0, DelayNs: 20},
		{AoDDeg: 30, RelAttDB: 4, PhaseRad: 1.0, DelayNs: 28},
		{AoDDeg: -25, RelAttDB: 7, PhaseRad: -0.5, DelayNs: 35},
	})
	s, err := nr.NewSounder(nr.Mu3(), 400e6, 64, 1e-6, nr.DefaultImpairments(), rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	w := m.PerAntennaCSI(0).Conj().Normalize()
	cir := s.CIR(s.Probe(m, w))
	rel := []float64{0, 8e-9, 15e-9}
	ws := scratch.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mk := ws.Mark()
		if _, err := ExtractInto(cir, rel, s.SampleSpacing(), DefaultConfig(), ws); err != nil {
			b.Fatal(err)
		}
		ws.Release(mk)
	}
}
