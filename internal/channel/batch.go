package channel

import (
	"fmt"

	"mmreliable/internal/cmx"
	"mmreliable/internal/scratch"
)

// WidebandBatch evaluates the effective wideband channel for many
// (model, beam) pairs over one shared subcarrier grid in a single pass —
// the frame-barrier gather the cluster coordinator's monitor round runs so
// a whole frame's worth of UEs goes through the planar DSP kernels together
// instead of interleaving per-UE evaluations with bookkeeping.
//
// Ownership rules (see DESIGN.md "Planar DSP backend"):
//
//   - The batch retains the (model, beam) registrations across frames; Add
//     grows the registration slices only until the high-water mark, so the
//     steady state stays allocation-free.
//   - Eval checks the planar response slab out of the caller's
//     scratch.Workspace: rows are valid until the caller's enclosing
//     Release/Reset, exactly like any other workspace checkout. Re-Eval or
//     Reset invalidates previous rows.
//   - Like the Reuse models it evaluates, a WidebandBatch is
//     single-goroutine. Frame-barrier use (coordinator only, workers idle)
//     satisfies this by construction and is what keeps output byte-identical
//     at any worker count.
type WidebandBatch struct {
	fOffs   []float64
	models  []*Model
	weights []cmx.Vector
	re, im  []float64 // response slab; row i at [i·nsc, (i+1)·nsc)
	evaled  bool
}

// Reset clears the registrations and retargets the batch at a subcarrier
// grid. fOffs is retained by reference and only read.
func (b *WidebandBatch) Reset(fOffs []float64) {
	b.fOffs = fOffs
	b.models = b.models[:0]
	b.weights = b.weights[:0]
	b.re, b.im = nil, nil
	b.evaled = false
}

// Add registers one (model, beam) pair and returns its row index. The model
// and weights are retained by reference until the next Reset and only read.
func (b *WidebandBatch) Add(m *Model, w cmx.Vector) int {
	b.models = append(b.models, m)
	b.weights = append(b.weights, w)
	b.evaled = false
	return len(b.models) - 1
}

// Len returns the number of registered pairs.
func (b *WidebandBatch) Len() int { return len(b.models) }

// Eval computes every registered pair's wideband response into a planar
// slab checked out of ws. Rows die at the caller's Release/Reset of ws.
func (b *WidebandBatch) Eval(ws *scratch.Workspace) {
	nsc := len(b.fOffs)
	total := nsc * len(b.models)
	b.re = ws.Float(total)
	b.im = ws.Float(total)
	for i, m := range b.models {
		m.EffectiveWidebandSplitInto(b.weights[i], b.fOffs, b.re[i*nsc:(i+1)*nsc], b.im[i*nsc:(i+1)*nsc])
	}
	b.evaled = true
}

// Row returns the planar wideband response of registration i, valid until
// the workspace release that covers Eval's checkout.
func (b *WidebandBatch) Row(i int) (re, im []float64) {
	if !b.evaled {
		panic("channel: WidebandBatch.Row before Eval")
	}
	nsc := len(b.fOffs)
	if i < 0 || i >= len(b.models) {
		panic(fmt.Sprintf("channel: WidebandBatch row %d out of %d", i, len(b.models)))
	}
	return b.re[i*nsc : (i+1)*nsc], b.im[i*nsc : (i+1)*nsc]
}
