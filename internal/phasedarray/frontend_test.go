package phasedarray

import (
	"math"
	"testing"

	"mmreliable/internal/antenna"
	"mmreliable/internal/cmx"
	"mmreliable/internal/dsp"
)

func newFE() *FrontEnd {
	return New(antenna.NewULA(8, 28e9), antenna.DefaultQuantizer())
}

func TestSetWeightsCountsSwitches(t *testing.T) {
	f := newFE()
	if f.ActiveView() != nil {
		t.Fatal("active weights before any program")
	}
	if err := f.SetWeights(f.Array.SingleBeam(0)); err != nil {
		t.Fatal(err)
	}
	if f.ActiveView() == nil {
		t.Fatal("no active weights after SetWeights")
	}
	if f.Switches() != 1 {
		t.Fatalf("switches = %d", f.Switches())
	}
}

func TestSetWeightsValidatesLength(t *testing.T) {
	f := newFE()
	if err := f.SetWeights(make(cmx.Vector, 3)); err == nil {
		t.Fatal("short weights should fail")
	}
	if f.ActiveView() != nil || f.Switches() != 0 {
		t.Fatal("rejected weights must not be programmed")
	}
}

// TestActiveIsCopy pins the read-only view contract: a caller
// that needs to mutate takes a Clone, and the programmed weights stay put.
func TestActiveIsCopy(t *testing.T) {
	f := newFE()
	_ = f.SetWeights(f.Array.SingleBeam(0))
	a := f.ActiveView().Clone()
	a[0] = 0
	if f.ActiveView()[0] == 0 {
		t.Fatal("mutating a clone changed the programmed weights")
	}
}

func TestTRPConservedAcrossBeamShapes(t *testing.T) {
	f := newFE()
	trp := func() float64 {
		n := f.ActiveView().Norm()
		return n * n
	}
	_ = f.SetWeights(f.Array.SingleBeam(0))
	if math.Abs(trp()-1) > 1e-9 {
		t.Fatalf("single-beam TRP = %g", trp())
	}
	// A 2-beam multi-beam must radiate the same total power.
	w := f.Array.SingleBeam(0).Clone()
	w.AddScaled(complex(0.7, 0.2), f.Array.SingleBeam(dsp.Rad(30)))
	_ = f.SetWeights(w.Normalize())
	if math.Abs(trp()-1) > 1e-9 {
		t.Fatalf("multi-beam TRP = %g", trp())
	}
}

func TestQuantizationAppliedOnStore(t *testing.T) {
	// With a coarse 2-bit quantizer, programmed phases must land on the grid.
	f := New(antenna.NewULA(8, 28e9), antenna.CoarseQuantizer())
	_ = f.SetWeights(f.Array.SingleBeam(dsp.Rad(17)))
	step := math.Pi / 2
	for i, x := range f.ActiveView() {
		if x == 0 {
			continue
		}
		ph := math.Atan2(imag(x), real(x))
		r := math.Mod(math.Abs(ph), step)
		if math.Min(r, step-r) > 1e-9 {
			t.Fatalf("element %d phase %g off 2-bit grid", i, ph)
		}
	}
}
