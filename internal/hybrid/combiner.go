package hybrid

import (
	"fmt"
	"math"
	"math/cmplx"

	"mmreliable/internal/cmx"
	"mmreliable/internal/link"
)

// Combiner is the per-slot digital MMSE stage of the hybrid tier: given the
// K×K wideband cross-channel matrix of a co-scheduled group (entry (u,v) is
// the per-subcarrier channel UE u observes through UE v's analog beam), it
// solves the regularized MMSE transmit beamformer
//
//	W = (noise·I + (P/K)·HᴴH)⁻¹ Hᴴ   (rows L2-normalized)
//
// over the center-subcarrier narrowband H via a Cholesky factorization of
// the K×K Gram, then evaluates each user's capacity-equivalent wideband
// SINR with the full per-subcarrier cross channels. This is the Go port of
// the SNIPPETS compute_mmse_beamformer baseline; combiner_test.go pins it
// against a direct Gaussian-elimination inverse to ≤1e-12.
//
// All storage is preallocated at construction and re-pointed per group
// size, so a long-lived Combiner runs Begin/Entry/Solve/UserSINRdB with
// zero allocations (pinned by the station's hybrid-slot allocs test).
type Combiner struct {
	maxUsers, nsc int
	k             int

	// gRe/gIm hold the wideband cross channels: entry (u,v) occupies the
	// nsc-long stretch at (u·maxUsers+v)·nsc, stride fixed at maxUsers so
	// Entry addresses do not depend on the current group size.
	gRe, gIm []float64

	hData, gramData, wData []complex128
	h, gram, w             cmx.Matrix

	chol cmx.CholeskyFactor
	rhs  cmx.Vector

	sigBuf, intBuf []float64
}

// NewCombiner returns a combiner sized for groups of up to maxUsers users
// and nsc-subcarrier wideband channels.
func NewCombiner(maxUsers, nsc int) *Combiner {
	if maxUsers < 1 || nsc < 1 {
		panic("hybrid: NewCombiner requires maxUsers ≥ 1 and nsc ≥ 1")
	}
	return &Combiner{
		maxUsers: maxUsers,
		nsc:      nsc,
		gRe:      make([]float64, maxUsers*maxUsers*nsc),
		gIm:      make([]float64, maxUsers*maxUsers*nsc),
		hData:    make([]complex128, maxUsers*maxUsers),
		gramData: make([]complex128, maxUsers*maxUsers),
		wData:    make([]complex128, maxUsers*maxUsers),
		chol:     cmx.CholeskyWith(make([]complex128, maxUsers*maxUsers)),
		rhs:      make(cmx.Vector, maxUsers),
		sigBuf:   make([]float64, nsc),
		intBuf:   make([]float64, nsc),
	}
}

// NumSC returns the per-entry subcarrier count.
func (c *Combiner) NumSC() int { return c.nsc }

// Begin starts a new slot for a group of k users, re-pointing the internal
// matrices at k×k views of the preallocated slabs. Every Entry (u,v) with
// u,v < k must be filled before Solve — entries are not cleared between
// slots, so a skipped fill would silently reuse the previous group's
// channel.
func (c *Combiner) Begin(k int) error {
	if k < 1 || k > c.maxUsers {
		return fmt.Errorf("hybrid: group size %d outside [1, %d]", k, c.maxUsers)
	}
	c.k = k
	c.h = cmx.Matrix{Rows: k, Cols: k, Data: c.hData[:k*k]}
	c.gram = cmx.Matrix{Rows: k, Cols: k, Data: c.gramData[:k*k]}
	c.w = cmx.Matrix{Rows: k, Cols: k, Data: c.wData[:k*k]}
	return nil
}

// Entry returns the planar per-subcarrier buffers for cross-channel (u,v):
// the channel UE u observes through the analog beam serving UE v. The
// caller fills them in place (channel.Model.EffectiveWidebandSplitInto
// writes exactly this layout).
func (c *Combiner) Entry(u, v int) (re, im []float64) {
	off := (u*c.maxUsers + v) * c.nsc
	return c.gRe[off : off+c.nsc], c.gIm[off : off+c.nsc]
}

// Solve computes the MMSE digital weights for the group begun by Begin,
// from the filled Entry channels. txLin/noiseLin are the budget's linear
// transmit and noise powers (link.Budget.SNRTerms); the transmit power is
// split evenly across the K users, so the Gram regularizer is
// noiseLin·I + (txLin/K)·HᴴH with H the center-subcarrier narrowband
// matrix. Fails only if the regularized Gram loses positive definiteness
// (a degenerate channel); the previous weights are then unusable.
func (c *Combiner) Solve(txLin, noiseLin float64) error {
	k := c.k
	if k == 0 {
		return fmt.Errorf("hybrid: Solve before Begin")
	}
	p := txLin / float64(k)
	mid := c.nsc / 2
	for u := 0; u < k; u++ {
		for v := 0; v < k; v++ {
			re, im := c.Entry(u, v)
			c.h.Set(u, v, complex(re[mid], im[mid]))
		}
	}
	for a := 0; a < k; a++ {
		for b := a; b < k; b++ {
			var s complex128
			for u := 0; u < k; u++ {
				s += cmplx.Conj(c.h.At(u, a)) * c.h.At(u, b)
			}
			g := complex(p, 0) * s
			if a == b {
				g += complex(noiseLin, 0)
				c.gram.Set(a, a, g)
				continue
			}
			c.gram.Set(a, b, g)
			c.gram.Set(b, a, cmplx.Conj(g))
		}
	}
	if err := c.chol.Factor(&c.gram); err != nil {
		return fmt.Errorf("hybrid: MMSE Gram: %w", err)
	}
	rhs := c.rhs[:k]
	for u := 0; u < k; u++ {
		for v := 0; v < k; v++ {
			rhs[v] = cmplx.Conj(c.h.At(u, v))
		}
		row := cmx.Vector(c.w.Data[u*k : (u+1)*k])
		c.chol.SolveInto(row, rhs)
		var nrm float64
		for _, x := range row {
			nrm += real(x)*real(x) + imag(x)*imag(x)
		}
		if nrm <= 0 || math.IsNaN(nrm) {
			return fmt.Errorf("hybrid: degenerate MMSE weights for user %d", u)
		}
		inv := 1 / math.Sqrt(nrm)
		for i := range row {
			row[i] = complex(real(row[i])*inv, imag(row[i])*inv)
		}
	}
	return nil
}

// Weight returns digital weight W[u][v] from the last Solve (the share of
// analog beam v in user u's precoder). Exposed for tests and oracles.
func (c *Combiner) Weight(u, v int) complex128 { return c.w.At(u, v) }

// UserSINRdB evaluates user u's capacity-equivalent wideband SINR under
// the weights of the last successful Solve: per subcarrier, the group's
// K digital streams propagate through the full cross-channel matrix, user
// u's own stream is signal, the other K−1 are interference, and the
// profile folds through link.WidebandSINRdB. Power split matches Solve
// (txLin/K per stream).
func (c *Combiner) UserSINRdB(u int, txLin, noiseLin float64) float64 {
	k := c.k
	p := txLin / float64(k)
	for j := 0; j < c.nsc; j++ {
		var sig, intf float64
		for s := 0; s < k; s++ {
			wrow := c.w.Data[s*k : (s+1)*k]
			var hwRe, hwIm float64
			for v := 0; v < k; v++ {
				off := (u*c.maxUsers+v)*c.nsc + j
				gr, gi := c.gRe[off], c.gIm[off]
				wr, wi := real(wrow[v]), imag(wrow[v])
				hwRe += gr*wr - gi*wi
				hwIm += gr*wi + gi*wr
			}
			pw := p * (hwRe*hwRe + hwIm*hwIm)
			if s == u {
				sig = pw
			} else {
				intf += pw
			}
		}
		c.sigBuf[j] = sig
		c.intBuf[j] = intf
	}
	return link.WidebandSINRdB(c.sigBuf, c.intBuf, noiseLin)
}
