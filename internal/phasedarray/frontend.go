// Package phasedarray emulates the analog front-end of the paper's testbed:
// a single-RF-chain phased array whose weights are programmed with
// quantized phase shifters and attenuators. The paper's ≈100 µs SPI
// beam-switch latency is not modelled: a program takes effect at once.
//
// The single-RF-chain constraint is the architectural fact that shapes the
// whole paper: the receiver can only ever observe one scalar (the
// superposition of everything the current weights admit), never per-antenna
// or per-beam channels directly.
package phasedarray

import (
	"fmt"

	"mmreliable/internal/antenna"
	"mmreliable/internal/cmx"
)

// FrontEnd emulates one phased-array panel.
type FrontEnd struct {
	Array *antenna.ULA
	Quant antenna.Quantizer

	active   cmx.Vector
	switches int
	// setBufs double-buffer the quantized weights SetWeights programs, so
	// steady-state reprogramming stays off the allocator. Two buffers keep
	// ActiveView's contract intact: a view taken before the latest
	// SetWeights still reads the previous weights, and the documented
	// rule — never retain a view across a switch — covers the rest.
	setBufs [2]cmx.Vector
	setIdx  int
}

// New returns a front end for the given array and quantizer.
func New(arr *antenna.ULA, q antenna.Quantizer) *FrontEnd {
	f := &FrontEnd{Array: arr, Quant: q}
	// Pre-size both weight registers: SetWeights double-buffers through
	// them, and lazy sizing would otherwise charge one allocation to each
	// of the first two weight loads — visible as a late one-time blip in
	// the pinned zero-alloc session loops.
	f.setBufs[0] = make(cmx.Vector, arr.N)
	f.setBufs[1] = make(cmx.Vector, arr.N)
	return f
}

// SetWeights programs arbitrary weights, quantized on the way in.
func (f *FrontEnd) SetWeights(w cmx.Vector) error {
	if len(w) != f.Array.N {
		return fmt.Errorf("phasedarray: weight length %d != %d elements", len(w), f.Array.N)
	}
	buf := f.setBufs[f.setIdx]
	if len(buf) != len(w) {
		buf = make(cmx.Vector, len(w))
	}
	f.setBufs[f.setIdx] = f.Quant.ApplyInto(w, buf)
	f.active = f.setBufs[f.setIdx]
	f.setIdx ^= 1
	f.switches++
	return nil
}

// ActiveView returns the currently programmed weights WITHOUT copying
// (nil before the first SetWeights). The returned slice is the front end's
// live state: callers must treat it as read-only and must not retain it
// across the next SetWeights; a caller that mutates takes a Clone.
func (f *FrontEnd) ActiveView() cmx.Vector { return f.active }

// Switches returns the number of weight programs since creation, for
// overhead accounting.
func (f *FrontEnd) Switches() int { return f.switches }
