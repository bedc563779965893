// Package core holds the small cross-cutting helpers every layer and CLI
// shares: an order-sensitive state digest (the service layer's
// restore-verification primitive), build identity for -version flags, and
// the unified CLI flag validator. It sits below every other internal
// package and imports nothing from the repo.
package core

import "math"

// Digest is an order-sensitive 64-bit fold over a layer's deterministic
// state. Layers expose `Digest(d *core.Digest)` hooks that
// fold their semantic state (scheduler positions, FSM fields, meter
// accumulators, beam weights) in a fixed order, so two simulations that
// would produce byte-identical output from here on fold to the same sum —
// at any worker count. The service layer stamps snapshots with the metro
// digest and refuses a restore whose replayed state disagrees.
//
// Every value folds as one 64-bit word: h = (h ^ v) · φ, then h ^= h >> 29,
// with φ the odd golden-ratio constant. Both steps are bijections of h, so
// changing any single folded word always changes the sum, and the
// multiply-then-xorshift mixes each word into the high and low bits before
// the next one lands (so order matters). One multiply per word instead of
// FNV-1a's eight per-byte multiplies keeps a full 64-site city digest
// cheap enough to take at every frame boundary.
//
// Floats fold as their IEEE-754 bit patterns (math.Float64bits), so ±Inf,
// signed zeros, and every ulp participate; this is a determinism check,
// not an approximate comparison.
type Digest struct {
	h uint64
}

const (
	digestBasis = 0xcbf29ce484222325 // the FNV-1a offset basis
	digestMul   = 0x9e3779b97f4a7c15 // 2⁶⁴/φ, odd
)

// NewDigest returns a fresh digest at the basis.
func NewDigest() *Digest { return &Digest{h: digestBasis} }

// Uint64 folds one 64-bit word.
func (d *Digest) Uint64(v uint64) {
	h := (d.h ^ v) * digestMul
	d.h = h ^ h>>29
}

// Int folds an int (as its 64-bit two's-complement pattern).
func (d *Digest) Int(v int) { d.Uint64(uint64(int64(v))) }

// Int64 folds an int64.
func (d *Digest) Int64(v int64) { d.Uint64(uint64(v)) }

// Float64 folds a float64's bit pattern.
func (d *Digest) Float64(v float64) { d.Uint64(math.Float64bits(v)) }

// Bool folds a bool as 0/1.
func (d *Digest) Bool(v bool) {
	if v {
		d.Uint64(1)
	} else {
		d.Uint64(0)
	}
}

// Floats folds a slice length followed by every element, so [1][2] and
// [1,2] fold differently.
func (d *Digest) Floats(vs []float64) {
	d.Int(len(vs))
	for _, v := range vs {
		d.Float64(v)
	}
}

// Bools folds a slice length followed by every element.
func (d *Digest) Bools(vs []bool) {
	d.Int(len(vs))
	for _, v := range vs {
		d.Bool(v)
	}
}

// Complex folds a complex128 as (real, imag).
func (d *Digest) Complex(v complex128) {
	d.Float64(real(v))
	d.Float64(imag(v))
}

// Sum returns the current fold.
func (d *Digest) Sum() uint64 { return d.h }
