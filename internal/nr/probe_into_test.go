package nr

import (
	"math/rand"
	"testing"

	"mmreliable/internal/channel"
	"mmreliable/internal/cmx"
	"mmreliable/internal/scratch"
)

// TestProbeIntoMatchesProbe pins the scratch-reusing probe to the allocating
// one bit for bit, including the RNG draw order: two sounders seeded
// identically, one probing through Probe and one through ProbeInto, must
// produce identical CSI estimates and identical subsequent random draws.
func TestProbeIntoMatchesProbe(t *testing.T) {
	m := testChannel()
	w := m.Tx.SingleBeam(0.1)
	s1, err := NewSounder(Mu3(), 400e6, 64, 0.05, DefaultImpairments(), rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSounder(Mu3(), 400e6, 64, 0.05, DefaultImpairments(), rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	buf := make(cmx.Vector, 64)
	for it := 0; it < 5; it++ {
		a := s1.Probe(m.Clone(), w)
		b := s2.ProbeInto(m.Clone(), w, buf)
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("iteration %d: Probe and ProbeInto diverge at subcarrier %d: %v vs %v", it, k, a[k], b[k])
			}
		}
	}
	if s1.Probes != s2.Probes {
		t.Fatalf("probe counters diverge: %d vs %d", s1.Probes, s2.Probes)
	}
}

// TestProbeFromSplitMatchesProbeInto pins the batched probe entry point:
// feeding ProbeFromSplit the planar channel row a frame-barrier batch
// computes must reproduce ProbeInto bit for bit — the same wideband
// evaluation, the same OFDM round trip, the same noise/CFO/SFO draws in the
// same order — so a pair's admission probe and its monitor-round probe
// never round differently.
func TestProbeFromSplitMatchesProbeInto(t *testing.T) {
	m := testChannel()
	w := m.Tx.SingleBeam(0.1)
	// Noise far below the ~1e-4 channel amplitude, so an ulp of difference
	// in the channel row survives into the estimate instead of being
	// rounded away by the noise.
	mk := func(seed int64) *Sounder {
		s, err := NewSounder(Mu3(), 400e6, 64, 1e-9, DefaultImpairments(), rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	t.Run("planar", func(t *testing.T) {
		s1, s2 := mk(42), mk(42)
		buf := make(cmx.Vector, 64)
		buf2 := make(cmx.Vector, 64)
		ws := scratch.New()
		var batch channel.WidebandBatch
		for it := 0; it < 5; it++ {
			mm := m.Clone()
			mm.Paths[0].ExtraLossDB = float64(it) * 6 // blockage sweep
			a := s1.ProbeInto(mm.Clone(), w, buf)
			batch.Reset(s2.SubcarrierOffsets())
			batch.Add(mm, w)
			mark := ws.Mark()
			batch.Eval(ws)
			re, im := batch.Row(0)
			b := s2.ProbeFromSplit(re, im, buf2)
			ws.Release(mark)
			for k := range a {
				if a[k] != b[k] {
					t.Fatalf("it %d sc %d: ProbeInto %v vs ProbeFromSplit %v", it, k, a[k], b[k])
				}
			}
		}
		if s1.Probes != s2.Probes {
			t.Fatalf("probe counters diverge: %d vs %d", s1.Probes, s2.Probes)
		}
	})
}

// TestProbeIntoAllocs pins the probing hot path — channel evaluation, OFDM
// round trip, noise, impairments — to zero steady-state allocations.
func TestProbeIntoAllocs(t *testing.T) {
	s := testSounder(t, 0.05, DefaultImpairments())
	m := testChannel()
	w := m.Tx.SingleBeam(0.1)
	dst := make(cmx.Vector, s.NumSC)
	s.ProbeInto(m, w, dst) // warm: FFT plan, channel cache
	allocs := testing.AllocsPerRun(100, func() {
		s.ProbeInto(m, w, dst)
	})
	if allocs != 0 {
		t.Fatalf("ProbeInto allocates %.1f objects/op, want 0", allocs)
	}
}

// TestDelayKernelIntoMatches pins a reused scratch column (written by the
// previous delay) to a freshly allocated one.
func TestDelayKernelIntoMatches(t *testing.T) {
	s := testSounder(t, 0, Impairments{})
	dst := make(cmx.Vector, s.NumSC)
	for _, tau := range []float64{0, 1.3e-9, 12e-9, -4e-9, 157e-9} {
		a := s.DelayKernelInto(tau, nil)
		b := s.DelayKernelInto(tau, dst)
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("tau %g: kernels diverge at tap %d", tau, k)
			}
		}
	}
}
