package hybrid

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"mmreliable/internal/cmx"
	"mmreliable/internal/link"
)

// fillRandomGroup populates a k-user group's cross channels with a random
// frequency-smooth wideband profile at a realistic link-budget amplitude
// scale (|h| ~ 1e-4, the indoor small-cell regime), dominant on the
// diagonal so the group is physically pairable.
func fillRandomGroup(c *Combiner, k int, rng *rand.Rand) {
	for u := 0; u < k; u++ {
		for v := 0; v < k; v++ {
			re, im := c.Entry(u, v)
			amp := 1e-4
			if u != v {
				amp *= 0.05 + 0.1*rng.Float64() // cross-beam leakage
			}
			phase := 2 * math.Pi * rng.Float64()
			slope := (rng.Float64() - 0.5) * 0.2 // mild frequency selectivity
			for j := range re {
				ph := phase + slope*float64(j)/float64(len(re))
				re[j] = amp * math.Cos(ph)
				im[j] = amp * math.Sin(ph)
			}
		}
	}
}

// directInverseWeights recomputes the MMSE weights of a filled group with
// cmx.Solve's partially-pivoted Gaussian elimination on an explicitly
// formed Gram — the direct-inverse oracle the Cholesky path is pinned to.
func directInverseWeights(c *Combiner, k int, txLin, noiseLin float64) *cmx.Matrix {
	p := txLin / float64(k)
	mid := c.NumSC() / 2
	h := cmx.NewMatrix(k, k)
	for u := 0; u < k; u++ {
		for v := 0; v < k; v++ {
			re, im := c.Entry(u, v)
			h.Set(u, v, complex(re[mid], im[mid]))
		}
	}
	gram := cmx.NewMatrix(k, k)
	for a := 0; a < k; a++ {
		for b := 0; b < k; b++ {
			var s complex128
			for u := 0; u < k; u++ {
				s += cmplx.Conj(h.At(u, a)) * h.At(u, b)
			}
			g := complex(p, 0) * s
			if a == b {
				g += complex(noiseLin, 0)
			}
			gram.Set(a, b, g)
		}
	}
	w := cmx.NewMatrix(k, k)
	for u := 0; u < k; u++ {
		rhs := make(cmx.Vector, k)
		for v := 0; v < k; v++ {
			rhs[v] = cmplx.Conj(h.At(u, v))
		}
		x, err := cmx.Solve(gram, rhs)
		if err != nil {
			panic(err)
		}
		x.Normalize()
		for v := 0; v < k; v++ {
			w.Set(u, v, x[v])
		}
	}
	return w
}

// TestCombinerMatchesDirectInverseOracle pins the Cholesky-backed MMSE
// solve against the Gaussian-elimination direct inverse to ≤1e-12 — the
// headline numerical contract of the hybrid tier.
func TestCombinerMatchesDirectInverseOracle(t *testing.T) {
	budget := link.DefaultBudget()
	txLin, noiseLin := budget.SNRTerms()
	rng := rand.New(rand.NewSource(7))
	c := NewCombiner(8, 64)
	for trial := 0; trial < 50; trial++ {
		k := 2 + rng.Intn(7) // 2..8
		if err := c.Begin(k); err != nil {
			t.Fatal(err)
		}
		fillRandomGroup(c, k, rng)
		if err := c.Solve(txLin, noiseLin); err != nil {
			t.Fatalf("trial %d (k=%d): %v", trial, k, err)
		}
		oracle := directInverseWeights(c, k, txLin, noiseLin)
		for u := 0; u < k; u++ {
			for v := 0; v < k; v++ {
				d := cmplx.Abs(c.Weight(u, v) - oracle.At(u, v))
				if d > 1e-12 {
					t.Fatalf("trial %d W[%d][%d]: |Δ| = %.3e > 1e-12 (got %v, oracle %v)",
						trial, u, v, d, c.Weight(u, v), oracle.At(u, v))
				}
			}
		}
	}
}

// TestCombinerRowsUnitNorm checks every solved precoder row is L2-unit.
func TestCombinerRowsUnitNorm(t *testing.T) {
	budget := link.DefaultBudget()
	txLin, noiseLin := budget.SNRTerms()
	rng := rand.New(rand.NewSource(3))
	c := NewCombiner(4, 32)
	if err := c.Begin(3); err != nil {
		t.Fatal(err)
	}
	fillRandomGroup(c, 3, rng)
	if err := c.Solve(txLin, noiseLin); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 3; u++ {
		var nrm float64
		for v := 0; v < 3; v++ {
			w := c.Weight(u, v)
			nrm += real(w)*real(w) + imag(w)*imag(w)
		}
		if math.Abs(nrm-1) > 1e-12 {
			t.Fatalf("row %d norm² = %.15f, want 1", u, nrm)
		}
	}
}

// TestCombinerSuppressesInterference checks the point of the digital
// stage: with the MMSE weights, each user's wideband SINR must be well
// above the raw beam-leakage SINR floor, and a near-diagonal channel must
// come out close to interference-free.
func TestCombinerSuppressesInterference(t *testing.T) {
	budget := link.DefaultBudget()
	txLin, noiseLin := budget.SNRTerms()
	rng := rand.New(rand.NewSource(11))
	c := NewCombiner(4, 64)
	if err := c.Begin(2); err != nil {
		t.Fatal(err)
	}
	fillRandomGroup(c, 2, rng)
	if err := c.Solve(txLin, noiseLin); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 2; u++ {
		sinr := c.UserSINRdB(u, txLin, noiseLin)
		if math.IsInf(sinr, -1) || sinr < link.OutageThresholdDB {
			t.Fatalf("user %d: SINR %.2f dB below outage threshold despite MMSE", u, sinr)
		}
	}
}

// TestCombinerZeroCrossTermsMatchesSNR: with exactly zero off-diagonal
// channels the MMSE weights must be (phase-rotated) identity and each
// user's SINR must equal the single-user wideband SNR of its own channel
// at 1/K power.
func TestCombinerZeroCrossTermsMatchesSNR(t *testing.T) {
	budget := link.DefaultBudget()
	txLin, noiseLin := budget.SNRTerms()
	const nsc = 48
	c := NewCombiner(2, nsc)
	if err := c.Begin(2); err != nil {
		t.Fatal(err)
	}
	ownRe := make([]float64, nsc)
	ownIm := make([]float64, nsc)
	for u := 0; u < 2; u++ {
		for v := 0; v < 2; v++ {
			re, im := c.Entry(u, v)
			for j := 0; j < nsc; j++ {
				re[j], im[j] = 0, 0
				if u == v {
					re[j] = 1.1e-4 * math.Cos(0.03*float64(j)+float64(u))
					im[j] = 1.1e-4 * math.Sin(0.03*float64(j)+float64(u))
					if u == 0 {
						ownRe[j], ownIm[j] = re[j], im[j]
					}
				}
			}
		}
	}
	if err := c.Solve(txLin, noiseLin); err != nil {
		t.Fatal(err)
	}
	if w01 := cmplx.Abs(c.Weight(0, 1)); w01 > 1e-12 {
		t.Fatalf("diagonal channel produced cross weight |W[0][1]| = %.3e", w01)
	}
	got := c.UserSINRdB(0, txLin, noiseLin)
	want := link.WidebandSNRdB(ownRe, ownIm, txLin/2, noiseLin)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("zero-interference SINR %.12f dB != half-power SNR %.12f dB", got, want)
	}
}

// TestCombinerReuseAcrossGroupSizes shrinks and regrows the group on one
// combiner, checking each configuration still matches the oracle (stale
// slab contents from a larger previous group must not bleed in).
func TestCombinerReuseAcrossGroupSizes(t *testing.T) {
	budget := link.DefaultBudget()
	txLin, noiseLin := budget.SNRTerms()
	rng := rand.New(rand.NewSource(5))
	c := NewCombiner(6, 32)
	for _, k := range []int{6, 2, 4, 3, 6} {
		if err := c.Begin(k); err != nil {
			t.Fatal(err)
		}
		fillRandomGroup(c, k, rng)
		if err := c.Solve(txLin, noiseLin); err != nil {
			t.Fatal(err)
		}
		oracle := directInverseWeights(c, k, txLin, noiseLin)
		for u := 0; u < k; u++ {
			for v := 0; v < k; v++ {
				if d := cmplx.Abs(c.Weight(u, v) - oracle.At(u, v)); d > 1e-12 {
					t.Fatalf("k=%d W[%d][%d]: |Δ| = %.3e", k, u, v, d)
				}
			}
		}
	}
}

// TestCombinerErrors covers the misuse paths.
func TestCombinerErrors(t *testing.T) {
	c := NewCombiner(4, 16)
	if err := c.Solve(1, 1e-9); err == nil {
		t.Fatal("Solve before Begin must fail")
	}
	if err := c.Begin(0); err == nil {
		t.Fatal("Begin(0) must fail")
	}
	if err := c.Begin(5); err == nil {
		t.Fatal("Begin(maxUsers+1) must fail")
	}
	// An all-zero channel makes the Gram noiseLin·I — still PD, but the
	// solved rows are zero and must be reported as degenerate.
	if err := c.Begin(2); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 2; u++ {
		for v := 0; v < 2; v++ {
			re, im := c.Entry(u, v)
			for j := range re {
				re[j], im[j] = 0, 0
			}
		}
	}
	if err := c.Solve(31.6, 7.9e-9); err == nil {
		t.Fatal("all-zero channel must fail Solve")
	}
}

// TestCombinerSteadyStateAllocs pins the whole warm slot sequence —
// Begin, Entry fills, Solve, per-user SINR — at zero allocations.
func TestCombinerSteadyStateAllocs(t *testing.T) {
	budget := link.DefaultBudget()
	txLin, noiseLin := budget.SNRTerms()
	rng := rand.New(rand.NewSource(9))
	c := NewCombiner(4, 64)
	if err := c.Begin(3); err != nil {
		t.Fatal(err)
	}
	fillRandomGroup(c, 3, rng)
	if err := c.Solve(txLin, noiseLin); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.Begin(3); err != nil {
			t.Error(err)
		}
		if err := c.Solve(txLin, noiseLin); err != nil {
			t.Error(err)
		}
		for u := 0; u < 3; u++ {
			if math.IsNaN(c.UserSINRdB(u, txLin, noiseLin)) {
				t.Error("NaN SINR")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("warm combiner slot allocates %.1f times, want 0", allocs)
	}
}
