package antenna

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"mmreliable/internal/cmx"
	"mmreliable/internal/dsp"
)

const fc28 = 28e9

func TestSteeringProperties(t *testing.T) {
	u := NewULA(8, fc28)
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	a := u.SteeringInto(dsp.Rad(20), nil)
	if len(a) != 8 {
		t.Fatalf("steering length %d", len(a))
	}
	for i, x := range a {
		if math.Abs(cmplx.Abs(x)-1) > 1e-12 {
			t.Fatalf("element %d magnitude %g", i, cmplx.Abs(x))
		}
	}
	// Broadside steering vector is all ones.
	b := u.SteeringInto(0, nil)
	for i, x := range b {
		if cmplx.Abs(x-1) > 1e-12 {
			t.Fatalf("broadside element %d = %v", i, x)
		}
	}
}

func TestMatchedBeamPeakGain(t *testing.T) {
	for _, n := range []int{4, 8, 16, 64} {
		u := NewULA(n, fc28)
		for _, deg := range []float64{-40, 0, 15, 30} {
			phi := dsp.Rad(deg)
			w := u.SingleBeam(phi)
			if math.Abs(w.Norm()-1) > 1e-12 {
				t.Fatalf("n=%d beam not unit norm", n)
			}
			got := u.Gain(w, phi)
			if math.Abs(got-float64(n)) > 1e-9 {
				t.Fatalf("n=%d φ=%g: peak gain %g want %g", n, deg, got, float64(n))
			}
		}
	}
}

func TestOffBeamGainLower(t *testing.T) {
	u := NewULA(8, fc28)
	w := u.SingleBeam(0)
	peak := u.Gain(w, 0)
	for _, deg := range []float64{5, 10, 20, 45, -30} {
		if g := u.Gain(w, dsp.Rad(deg)); g >= peak {
			t.Fatalf("gain at %g° (%g) not below peak (%g)", deg, g, peak)
		}
	}
}

func TestArrayFactorMatchesGain(t *testing.T) {
	// |a(θ)ᵀw|² for matched unit beam = N·AF(θ)².
	u := NewULA(8, fc28)
	phi := dsp.Rad(10)
	w := u.SingleBeam(phi)
	for _, deg := range []float64{-30, 0, 5, 10, 25, 50} {
		th := dsp.Rad(deg)
		gain := u.Gain(w, th)
		af := u.ArrayFactor(phi, th)
		want := float64(u.N) * af * af
		if math.Abs(gain-want) > 1e-9*(1+want) {
			t.Fatalf("θ=%g: gain %g vs N·AF² %g", deg, gain, want)
		}
	}
}

func TestArrayFactorNulls(t *testing.T) {
	// First null of an N-element broadside beam is at sinθ = λ/(N·d).
	u := NewULA(8, fc28)
	sinNull := u.Lambda / (float64(u.N) * u.Spacing)
	theta := math.Asin(sinNull)
	if af := u.ArrayFactor(0, theta); af > 1e-9 {
		t.Fatalf("array factor at first null = %g", af)
	}
}

func TestInvertArrayFactorRoundTrip(t *testing.T) {
	u := NewULA(8, fc28)
	// For offsets within the main lobe, Invert(AF(offset)) ≈ offset.
	for _, deg := range []float64{1, 3, 5, 7} {
		off := dsp.Rad(deg)
		ratio := u.ArrayFactor(0, off)
		got := u.InvertArrayFactor(ratio)
		if math.Abs(got-off) > dsp.Rad(0.5) {
			t.Fatalf("offset %g°: inverted %g°", deg, dsp.Deg(got))
		}
	}
	if got := u.InvertArrayFactor(1); got != 0 {
		t.Fatalf("Invert(1) = %g", got)
	}
	if got := u.InvertArrayFactor(1.5); got != 0 {
		t.Fatalf("Invert(>1) = %g", got)
	}
	// Very small ratios clamp to about the first null, not beyond.
	null := u.InvertArrayFactor(1e-9)
	sinNull := u.Lambda / (float64(u.N) * u.Spacing)
	if null > math.Asin(math.Min(1, sinNull))+1e-6 {
		t.Fatalf("Invert clamped beyond first null: %g", null)
	}
}

func TestMisalignmentLossMatchesPaper(t *testing.T) {
	// §4.2: "a mere angular movement of 14° would cause a 20 dB loss".
	// That figure corresponds to a high-gain (64-element-class azimuth)
	// array; verify the qualitative claim that the paper's own 8-az-element
	// array loses >10 dB within ~14° and a 16-element one loses >20 dB.
	u := NewULA(16, fc28)
	w := u.SingleBeam(0)
	lossDB := u.GainDB(w, 0) - u.GainDB(w, dsp.Rad(14))
	if lossDB < 20 {
		t.Fatalf("16-element loss at 14° = %.1f dB, want ≥ 20", lossDB)
	}
	u8 := NewULA(8, fc28)
	w8 := u8.SingleBeam(0)
	loss8 := u8.GainDB(w8, 0) - u8.GainDB(w8, dsp.Rad(14))
	if loss8 < 10 {
		t.Fatalf("8-element loss at 14° = %.1f dB, want ≥ 10", loss8)
	}
}

func TestDFTCodebook(t *testing.T) {
	u := NewULA(8, fc28)
	cb := DFTCodebook(u, 16, dsp.Rad(-60), dsp.Rad(60))
	if cb.Len() != 16 {
		t.Fatalf("codebook size %d", cb.Len())
	}
	if cb.Angles[0] != dsp.Rad(-60) || cb.Angles[15] != dsp.Rad(60) {
		t.Fatalf("codebook endpoints %g %g", cb.Angles[0], cb.Angles[15])
	}
	for i, w := range cb.Weights {
		if math.Abs(w.Norm()-1) > 1e-12 {
			t.Fatalf("entry %d not unit norm", i)
		}
		// Each entry's pattern should peak at (or very near) its own angle.
		self := u.Gain(w, cb.Angles[i])
		if math.Abs(self-float64(u.N)) > 1e-9 {
			t.Fatalf("entry %d self-gain %g", i, self)
		}
	}
	one := DFTCodebook(u, 1, dsp.Rad(-60), dsp.Rad(60))
	if one.Len() != 1 || one.Angles[0] != 0 {
		t.Fatalf("single-entry codebook should sit at center, got %v", one.Angles)
	}
}

func TestWideBeamTradesGainForWidth(t *testing.T) {
	u := NewULA(8, fc28)
	narrow := u.SingleBeam(0)
	wide := WideBeam(u, 0, 2)
	if math.Abs(wide.Norm()-1) > 1e-12 {
		t.Fatal("wide beam not unit norm")
	}
	// Lower peak gain.
	if u.Gain(wide, 0) >= u.Gain(narrow, 0) {
		t.Fatal("wide beam peak gain not lower")
	}
	// Higher gain off-axis (at 20°, past the narrow beam's first null region).
	off := dsp.Rad(20)
	if u.Gain(wide, off) <= u.Gain(narrow, off) {
		t.Fatalf("wide beam not wider: %g vs %g at 20°",
			u.Gain(wide, off), u.Gain(narrow, off))
	}
	// Degenerate element counts clamp.
	if w := WideBeam(u, 0, 0); math.Abs(w.Norm()-1) > 1e-12 {
		t.Fatal("active=0 should clamp to 1")
	}
	if w := WideBeam(u, 0, 99); math.Abs(w.Norm()-1) > 1e-12 {
		t.Fatal("active>N should clamp to N")
	}
}

func TestQuantizerFineIsNearLossless(t *testing.T) {
	u := NewULA(8, fc28)
	q := DefaultQuantizer()
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	w := u.SingleBeam(dsp.Rad(23))
	wq := q.Apply(w)
	if math.Abs(wq.Norm()-1) > 1e-12 {
		t.Fatal("quantized beam not unit norm")
	}
	lossDB := u.GainDB(w, dsp.Rad(23)) - u.GainDB(wq, dsp.Rad(23))
	if lossDB > 0.1 {
		t.Fatalf("6-bit quantization loss %g dB", lossDB)
	}
}

func TestQuantizerCoarseStillForms(t *testing.T) {
	u := NewULA(8, fc28)
	q := CoarseQuantizer()
	phi := dsp.Rad(30)
	w := u.SingleBeam(phi)
	wq := q.Apply(w)
	// 2-bit phase still forms a usable beam: within ~1.5 dB of ideal
	// (classic result for 2-bit phase quantization loss ≈ 0.9 dB).
	lossDB := u.GainDB(w, phi) - u.GainDB(wq, phi)
	if lossDB > 1.6 {
		t.Fatalf("2-bit quantization loss %g dB", lossDB)
	}
	if lossDB < 0 {
		t.Fatalf("quantization cannot increase matched gain: %g dB", lossDB)
	}
}

func TestQuantizerPhaseLevels(t *testing.T) {
	q := Quantizer{PhaseBits: 2}
	w := cmx.Vector{cmplx.Rect(1, 0.3), cmplx.Rect(1, 1.8), cmplx.Rect(1, -2.9)}
	wq := q.Apply(w)
	step := math.Pi / 2
	for i, x := range wq {
		ph := cmplx.Phase(x)
		r := math.Mod(math.Abs(ph), step)
		if math.Min(r, step-r) > 1e-9 {
			t.Fatalf("element %d phase %g not on 2-bit grid", i, ph)
		}
	}
}

func TestQuantizerAmplitudeFloor(t *testing.T) {
	q := Quantizer{PhaseBits: 6, GainRangeDB: 27, GainStepDB: 0.5}
	// One element far below the attenuator range must switch off.
	w := cmx.Vector{1, complex(0.1, 0), complex(1e-4, 0)} // −20 dB in range, −80 dB below
	wq := q.Apply(w)
	if cmplx.Abs(wq[2]) != 0 {
		t.Fatalf("element below range not zeroed: %v", wq[2])
	}
	if cmplx.Abs(wq[1]) == 0 {
		t.Fatal("element within range wrongly zeroed")
	}
}

func TestQuantizerOnOffAmplitude(t *testing.T) {
	q := Quantizer{PhaseBits: 2, GainRangeDB: 27, GainStepDB: 0}
	w := cmx.Vector{complex(1, 0), complex(0.4, 0), complex(1e-5, 0)}
	wq := q.Apply(w)
	// Live elements share the same magnitude under on/off control.
	if math.Abs(cmplx.Abs(wq[0])-cmplx.Abs(wq[1])) > 1e-12 {
		t.Fatalf("on/off amplitudes differ: %g vs %g", cmplx.Abs(wq[0]), cmplx.Abs(wq[1]))
	}
	if cmplx.Abs(wq[2]) != 0 {
		t.Fatal("sub-range element should be off")
	}
}

func TestQuantizerZeroVector(t *testing.T) {
	q := DefaultQuantizer()
	w := cmx.NewVector(4)
	wq := q.Apply(w)
	if wq.Norm() != 0 {
		t.Fatal("zero vector should stay zero")
	}
}

func TestQuantizerValidate(t *testing.T) {
	if err := (Quantizer{PhaseBits: -1}).Validate(); err == nil {
		t.Fatal("negative phase bits should fail")
	}
	if err := (Quantizer{GainRangeDB: -3}).Validate(); err == nil {
		t.Fatal("negative gain range should fail")
	}
}

func TestValidateRejectsBadULA(t *testing.T) {
	if err := (&ULA{N: 0, Spacing: 1, Lambda: 1}).Validate(); err == nil {
		t.Fatal("N=0 should fail")
	}
	if err := (&ULA{N: 4, Spacing: -1, Lambda: 1}).Validate(); err == nil {
		t.Fatal("negative spacing should fail")
	}
}

func TestGainReciprocityRandomWeights(t *testing.T) {
	// Gain is invariant to a global phase rotation of the weights.
	u := NewULA(8, fc28)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		w := make(cmx.Vector, u.N)
		for i := range w {
			w[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		w.Normalize()
		rot := w.Scaled(cmplx.Exp(complex(0, rng.Float64()*2*math.Pi)))
		th := (rng.Float64() - 0.5) * math.Pi / 2
		if math.Abs(u.Gain(w, th)-u.Gain(rot, th)) > 1e-9 {
			t.Fatal("gain not phase-rotation invariant")
		}
	}
}
