package superres

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"

	"mmreliable/internal/cmx"
	"mmreliable/internal/dsp"
)

// fdCorr evaluates the frequency-domain candidate correlation
// (1/N)·Σ_m A[m]·e^{j2πf_m τ} through the production ramp code path.
func fdCorr(a cmx.Vector, bw, tau float64) complex128 {
	p := make(cmx.Vector, len(a))
	for m := range p {
		p[m] = 1
	}
	applyFreqRamp(p, bw, tau)
	var s complex128
	for m := range a {
		s += a[m] * p[m]
	}
	return s / complex(float64(len(a)), 0)
}

// TestFreqCorrelationMatchesTimeDomain is the property test of the
// frequency-domain identity: for random CIRs and delays — fractional,
// negative, and beyond the CIR span (wraparound) — the spectral product
// must equal the direct kernel(τ)ᴴ·h correlation within 1e-12.
func TestFreqCorrelationMatchesTimeDomain(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{16, 64, 256} {
		bw := 400e6
		ts := 1 / bw
		h := make(cmx.Vector, n)
		for i := range h {
			h[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		a := h.Clone()
		if err := dsp.FFT(a); err != nil {
			t.Fatal(err)
		}
		col := make(cmx.Vector, n)
		taus := []float64{
			0, 0.3 * ts, 1e-12, -0.7 * ts, 2.5 * ts, -3.9 * ts,
			float64(n) * ts,             // full wrap
			-float64(n) * ts * 1.5,      // negative beyond the span
			(float64(n) + 0.421) * ts,   // wrap + fraction
			-(float64(n) - 0.137) * ts,  // negative wrap + fraction
			float64(n) / 2 * ts,         // half span (kernel sign flip zone)
			(float64(n)/2 + 0.653) * ts, // half span + fraction
		}
		for trial := 0; trial < 50; trial++ {
			taus = append(taus, (rng.Float64()*4-2)*float64(n)*ts)
		}
		scale := h.Norm()
		for _, tau := range taus {
			want := delayKernelInto(bw, n, tau, col).Hdot(h)
			got := fdCorr(a, bw, tau)
			if d := cmplx.Abs(got - want); d > 1e-12*scale {
				t.Fatalf("n=%d τ=%g samples: FD %v vs TD %v (|Δ|=%g, rel %g)",
					n, tau/ts, got, want, d, d/scale)
			}
		}
	}
}

// TestClosedFormGramMatchesKernels pins the geometric-series Gram against
// direct column inner products, including wrap and sub-resolution
// spacings, and checks it is exactly Hermitian with a unit diagonal.
func TestClosedFormGramMatchesKernels(t *testing.T) {
	bw, n := 400e6, 64
	ts := 1 / bw
	rels := [][]float64{
		{0, 10e-9},
		{0, 0.8e-9, 15e-9},
		{0, -4.3e-9, 2.1e-9, 37.5e-9},
		{0, float64(n) * ts, 0.25 * ts}, // one delay a full wrap out
		{0, 0.05e-9},                    // deep inside one resolution cell
	}
	for _, rel := range rels {
		k := len(rel)
		g := cmx.NewMatrix(k, k)
		delayGramInto(g, rel, bw, n)
		cols := make([]cmx.Vector, k)
		for i, rd := range rel {
			cols[i] = delayKernelInto(bw, n, rd, nil)
		}
		for a := 0; a < k; a++ {
			for b := 0; b < k; b++ {
				want := cols[a].Hdot(cols[b])
				if d := cmplx.Abs(g.At(a, b) - want); d > 1e-12 {
					t.Fatalf("rel=%v: G[%d][%d] = %v, direct %v (|Δ|=%g)", rel, a, b, g.At(a, b), want, d)
				}
				if g.At(a, b) != cmplx.Conj(g.At(b, a)) {
					t.Fatalf("rel=%v: Gram not exactly Hermitian at (%d,%d)", rel, a, b)
				}
			}
		}
		for a := 0; a < k; a++ {
			if g.At(a, a) != 1 {
				t.Fatalf("rel=%v: diagonal G[%d][%d] = %v, want exactly 1", rel, a, a, g.At(a, a))
			}
		}
	}
}

// TestFreqDomainMatchesTimeDomain pins the full frequency-domain fit to
// the direct time-domain solver within 1e-12 on Amp, BaseDelay, and
// Residual, across CFO/SFO-impaired probes and a blockage event.
func TestFreqDomainMatchesTimeDomain(t *testing.T) {
	cases := []struct {
		name            string
		noise           float64
		seed            int64
		relAtt, excess  float64
		blockAfterProbe bool
	}{
		{"clean", 0, 31, 3, 10, false},
		{"cfo_sfo_noise", 2e-6, 32, 5, 7.5, false},
		{"subresolution", 1e-6, 33, 3, 1.2, false},
		{"blockage", 0, 34, 3, 10, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := newSounder(t, c.noise, c.seed)
			cir, _ := measure(t, s, c.relAtt, c.excess)
			if c.blockAfterProbe {
				// Re-measure with the second path heavily attenuated so the
				// strongest tap may no longer be the reference path.
				cir2, _ := measure(t, s, c.relAtt+12, c.excess)
				cir = cir2
			}
			rel := []float64{0, c.excess * 1e-9}
			td, err := ExtractKernel(cir, rel, func(tau float64, dst cmx.Vector) cmx.Vector {
				return delayKernelInto(1/s.SampleSpacing(), len(cir), tau, dst)
			}, s.SampleSpacing(), DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			fd, err := ExtractInto(cir, rel, s.SampleSpacing(), DefaultConfig(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if fd.BaseDelay != td.BaseDelay {
				t.Fatalf("BaseDelay: FD %g vs TD %g", fd.BaseDelay, td.BaseDelay)
			}
			if d := math.Abs(fd.Residual - td.Residual); d > 1e-12 {
				t.Fatalf("Residual: FD %g vs TD %g (|Δ|=%g)", fd.Residual, td.Residual, d)
			}
			for k := range td.Amp {
				if d := cmplx.Abs(fd.Amp[k] - td.Amp[k]); d > 1e-12 {
					t.Fatalf("Amp[%d]: FD %v vs TD %v (|Δ|=%g)", k, fd.Amp[k], td.Amp[k], d)
				}
			}
		})
	}
}

// TestNearSingularRidgedGram puts two delays deep inside one resolution
// cell. With the default ridge the hoisted Cholesky factorization must
// stay stable (finite amplitudes, sane residual); with λ=0 the Gram is
// numerically singular, CholeskyFactor must decline, and the per-candidate
// Gaussian fallback must keep the solver from panicking or returning NaN.
func TestNearSingularRidgedGram(t *testing.T) {
	s := newSounder(t, 0, 35)
	cir, _ := measure(t, s, 3, 0.05) // 0.05 ns apart at 2.5 ns resolution
	rel := []float64{0, 0.05e-9}

	res, err := ExtractInto(cir, rel, s.SampleSpacing(), DefaultConfig(), nil)
	if err != nil {
		t.Fatalf("ridged near-singular fit failed: %v", err)
	}
	if res.Residual > 0.05 {
		t.Fatalf("ridged residual %g", res.Residual)
	}
	for k, a := range res.Amp {
		if cmplx.IsNaN(a) || cmplx.IsInf(a) {
			t.Fatalf("ridged Amp[%d] = %v", k, a)
		}
	}

	// λ=0 with exactly coincident delays: the Gram is exactly rank-1, the
	// Cholesky must decline it…
	g := cmx.NewMatrix(2, 2)
	delayGramInto(g, []float64{0, 0}, 1/s.SampleSpacing(), len(cir))
	var ch cmx.CholeskyFactor
	if err := ch.Factor(g); err != cmx.ErrNotPD {
		t.Fatalf("Factor(rank-1 gram) = %v, want ErrNotPD", err)
	}
	// …and ExtractInto must take the per-candidate Gaussian fallback,
	// which also finds every candidate singular and reports the
	// degenerate-candidates error instead of panicking.
	cfg := DefaultConfig()
	cfg.Lambda = 0
	if _, err := ExtractInto(cir, []float64{0, 0}, s.SampleSpacing(), cfg, nil); err == nil {
		t.Fatal("unridged coincident-delay extraction should fail cleanly")
	}
	// A barely separated pair (1 fs) under λ=0 is PD only to rounding: the
	// solver must stay finite whichever path it takes.
	resZ, err := ExtractInto(cir, []float64{0, 1e-15}, s.SampleSpacing(), cfg, nil)
	if err == nil {
		for k, a := range resZ.Amp {
			if cmplx.IsNaN(a) || cmplx.IsInf(a) {
				t.Fatalf("unridged Amp[%d] = %v", k, a)
			}
		}
		if math.IsNaN(resZ.Residual) {
			t.Fatal("unridged residual is NaN")
		}
	}
}

// TestExtractIntoRejectsNonPow2 checks that a CIR without a radix-2 FFT
// length is refused with an error rather than fitted by another solver.
func TestExtractIntoRejectsNonPow2(t *testing.T) {
	bw := 400e6
	n := 48 // not a power of two
	cir := delayKernelInto(bw, n, 0, nil)
	_, err := ExtractInto(cir, []float64{0, 10e-9}, 1/bw, DefaultConfig(), nil)
	if err == nil || !strings.Contains(err.Error(), "power of two") {
		t.Fatalf("ExtractInto(len %d) error = %v, want a power-of-two error", n, err)
	}
}

// KernelIntoFunc writes the CIR signature of a unit path at the given
// absolute delay into dst and returns it (dst may be nil, in which case the
// kernel allocates). delayKernelInto and nr.(*Sounder).DelayKernelInto
// satisfy this; the alignment search calls it hundreds of times per fit on
// one reused scratch column.
type KernelIntoFunc func(tau float64, dst cmx.Vector) cmx.Vector

// ExtractKernel is the direct time-domain solver for arbitrary dictionary
// kernels: every candidate correlation synthesizes the dictionary column
// kernel(base+rel_k) through one reused scratch buffer and inner-products
// it against the aligned CIR. It is the reference implementation the
// frequency-domain ExtractInto is pinned against (within 1e-12; see
// TestFreqDomainMatchesTimeDomain).
func ExtractKernel(cir cmx.Vector, relDelays []float64, kernel KernelIntoFunc, sampleSpacing float64, cfg Config) (Result, error) {
	if err := validate(cir, relDelays, sampleSpacing); err != nil {
		return Result{}, err
	}
	// Align: rotate the strongest tap to index 0. The unknown absolute ToF
	// then lives within ± a fraction of a sample, covered by the search.
	_, peak := cir.MaxAbs()
	aligned := rotate(cir, -peak)

	steps := searchSteps
	norm := aligned.Norm()
	if norm == 0 {
		return Result{}, fmt.Errorf("superres: zero CIR")
	}
	// The dictionary Gram matrix is invariant under a common delay shift of
	// all columns (a pure-delay kernel's inner products depend only on
	// delay differences), so it is computed once and reused across every
	// alignment candidate; each candidate then only needs the K correlation
	// values Aᴴb and a K×K solve, with the residual evaluated as
	// ‖b‖² − 2·Re(αᴴc) + αᴴGα.
	gram := func() *cmx.Matrix {
		cols := make([]cmx.Vector, len(relDelays))
		for k, rd := range relDelays {
			cols[k] = kernel(rd, nil) // distinct columns: no scratch sharing
		}
		return cmx.FromColumns(cols).Gram()
	}()
	ridged := gram.Clone()
	if cfg.Lambda > 0 {
		for i := 0; i < ridged.Rows; i++ {
			ridged.Set(i, i, ridged.At(i, i)+complex(cfg.Lambda, 0))
		}
	}
	b2 := aligned.Norm2()
	// One column scratch and one correlation buffer shared by every
	// alignment candidate (the solver copies what it keeps).
	col := make(cmx.Vector, len(cir))
	corr := make(cmx.Vector, len(relDelays))
	fit := func(base float64) (Result, bool) {
		for k, rd := range relDelays {
			corr[k] = kernel(base+rd, col).Hdot(aligned)
		}
		alpha, err := cmx.Solve(ridged, corr)
		if err != nil {
			return Result{}, false
		}
		res2 := b2 - 2*real(alpha.Hdot(corr)) + real(alpha.Hdot(gram.MulVec(alpha)))
		if res2 < 0 {
			res2 = 0
		}
		return Result{Amp: alpha, BaseDelay: base, Residual: math.Sqrt(res2) / norm}, true
	}
	search := func(center, span float64) Result {
		best := Result{Residual: math.Inf(1)}
		for s := 0; s < steps; s++ {
			base := center
			if steps > 1 {
				base = center - span + 2*span*float64(s)/float64(steps-1)
			}
			if r, ok := fit(base); ok && r.Residual < best.Residual {
				best = r
			}
		}
		return best
	}
	// The aligned CIR has its strongest tap at index 0, but which *path*
	// that tap belongs to is unknown (a blocked reference path may no
	// longer be the strongest). Try one alignment hypothesis per beam —
	// "the strongest tap is beam j", i.e. a global base delay of −rel[j] —
	// with a coarse pass over ±searchSpan and a fine pass around the
	// winner so fractional-sample timing drift (e.g. an SFO-induced shift)
	// is matched to well under the grid step.
	best := Result{Residual: math.Inf(1)}
	for _, rd := range relDelays {
		if cand := search(-rd, searchSpan); cand.Residual < best.Residual {
			best = cand
		}
	}
	if steps > 1 && !math.IsInf(best.Residual, 1) {
		fineSpan := 2 * searchSpan / float64(steps-1)
		if fine := search(best.BaseDelay, fineSpan); fine.Residual < best.Residual {
			best = fine
		}
	}
	if math.IsInf(best.Residual, 1) {
		return Result{}, fmt.Errorf("superres: every alignment candidate was degenerate")
	}
	best.Power = make([]float64, len(best.Amp))
	for k, a := range best.Amp {
		best.Power[k] = real(a)*real(a) + imag(a)*imag(a)
	}
	return best, nil
}

// rotate circularly shifts v by k positions (positive k moves content to
// higher indices).
func rotate(v cmx.Vector, k int) cmx.Vector {
	n := len(v)
	out := make(cmx.Vector, n)
	for i := range v {
		j := ((i+k)%n + n) % n
		out[j] = v[i]
	}
	return out
}

// delayKernelInto writes the time-domain CIR signature of a unit path at
// delay tau — the IFFT of e^{−j2πf_k·tau} over the centered subcarrier
// grid — into dst (allocated when nil). It mirrors the sounder's
// closed-form delay kernel, rounding included.
func delayKernelInto(bw float64, n int, tau float64, dst cmx.Vector) cmx.Vector {
	if dst == nil {
		dst = make(cmx.Vector, n)
	}
	if len(dst) != n {
		panic(fmt.Sprintf("superres: delay-kernel dst length %d != %d", len(dst), n))
	}
	bTau := bw * tau
	lead := expi(-2 * math.Pi * (-bw/2 + bw/(2*float64(n))) * tau)
	num := expi(-2*math.Pi*bTau) - 1
	ls := lead * complex(1/float64(n), 0)
	lsn := ls * num
	step := expi(2 * math.Pi / float64(n))
	var rho complex128
	for i := 0; i < n; i++ {
		if i%phasorReseed == 0 {
			rho = expi(2*math.Pi*float64(i)/float64(n) - 2*math.Pi*bTau/float64(n))
		}
		den := rho - 1
		// Same degenerate branch and conjugate-reciprocal ratio as the
		// sounder's kernel (|den|² against (1e-12)²), keeping the two
		// implementations' rounding aligned.
		d := real(den)*real(den) + imag(den)*imag(den)
		if d < 1e-24 {
			dst[i] = ls * complex(float64(n), 0)
		} else {
			inv := 1 / d
			dst[i] = lsn * complex(real(den)*inv, -imag(den)*inv)
		}
		rho *= step
	}
	return dst
}

// TestPolyEvalMatchesDirectSum pins the split-Horner kernel against the
// direct sum Σ_m r[m]·z^m with z^m from an exact exponential per term,
// at the plain-Horner lengths (1, 2) and the four-chain ones (4, 64).
func TestPolyEvalMatchesDirectSum(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 2, 4, 64} {
		r := make([]complex128, n)
		for trial := 0; trial < 50; trial++ {
			for m := range r {
				r[m] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			theta := (rng.Float64()*2 - 1) * math.Pi
			var want complex128
			for m := range r {
				want += r[m] * expi(float64(m)*theta)
			}
			got := polyEval(r, expi(theta))
			scale := cmx.Vector(r).Norm()
			if d := cmplx.Abs(got - want); d > 1e-12*scale {
				t.Fatalf("n=%d θ=%g: polyEval %v vs direct %v (|Δ|=%g)", n, theta, got, want, d)
			}
		}
	}
}

// TestSharedDiagonalMatchesEveryRow pins the shared diagonal (hypothesis
// j's row j taken from hypothesis 0's row-0 correlation) against
// evaluating every row of every hypothesis, for K = 1…5 paths over noisy
// random channels: Amp and Residual within 1e-12, BaseDelay identical.
func TestSharedDiagonalMatchesEveryRow(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	bw, n := 400e6, 64
	ts := 1 / bw
	col := make(cmx.Vector, n)
	for k := 1; k <= 5; k++ {
		for trial := 0; trial < 20; trial++ {
			rel := make([]float64, k)
			for i := 1; i < k; i++ {
				rel[i] = (rng.Float64()*16 - 4) * ts
			}
			base := (rng.Float64()*2 - 1) * ts
			cir := make(cmx.Vector, n)
			for i := range cir {
				cir[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * 1e-2
			}
			for _, rd := range rel {
				amp := cmplx.Rect(math.Pow(10, -rng.Float64()*0.5), rng.Float64()*2*math.Pi)
				cir.AddScaled(amp, delayKernelInto(bw, n, 20*ts+base+rd, col))
			}
			all, err := extract(cir, rel, ts, DefaultConfig(), nil, false)
			if err != nil {
				t.Fatal(err)
			}
			shared, err := extract(cir, rel, ts, DefaultConfig(), nil, true)
			if err != nil {
				t.Fatal(err)
			}
			if shared.BaseDelay != all.BaseDelay {
				t.Fatalf("K=%d trial %d: BaseDelay %g vs every-row %g", k, trial, shared.BaseDelay, all.BaseDelay)
			}
			if d := math.Abs(shared.Residual - all.Residual); d > 1e-12 {
				t.Fatalf("K=%d trial %d: Residual %g vs every-row %g (|Δ|=%g)", k, trial, shared.Residual, all.Residual, d)
			}
			for i := range all.Amp {
				if d := cmplx.Abs(shared.Amp[i] - all.Amp[i]); d > 1e-12 {
					t.Fatalf("K=%d trial %d: Amp[%d] %v vs every-row %v (|Δ|=%g)", k, trial, i, shared.Amp[i], all.Amp[i], d)
				}
			}
		}
	}
}
