package cmx

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func almostEq(a, b float64) bool { return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b)) }

func almostEqC(a, b complex128) bool {
	return almostEq(real(a), real(b)) && almostEq(imag(a), imag(b))
}

func randVec(rng *rand.Rand, n int) Vector {
	v := make(Vector, n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return v
}

func TestDotAndHdot(t *testing.T) {
	v := Vector{1 + 2i, 3 - 1i}
	u := Vector{2, 1i}
	if got := v.Dot(u); !almostEqC(got, (1+2i)*2+(3-1i)*1i) {
		t.Fatalf("Dot = %v", got)
	}
	if got := v.Hdot(u); !almostEqC(got, cmplx.Conj(1+2i)*2+cmplx.Conj(3-1i)*1i) {
		t.Fatalf("Hdot = %v", got)
	}
}

func TestNormMatchesHdot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		v := randVec(rng, 1+rng.Intn(20))
		want := real(v.Hdot(v))
		if !almostEq(v.Norm2(), want) {
			t.Fatalf("Norm2 = %g want %g", v.Norm2(), want)
		}
		if !almostEq(v.Norm()*v.Norm(), want) {
			t.Fatalf("Norm² = %g want %g", v.Norm()*v.Norm(), want)
		}
	}
}

func TestNormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		v := randVec(rng, 8)
		u := v.Clone().Normalize()
		if !almostEq(u.Norm(), 1) {
			t.Fatalf("normalized norm = %g", u.Norm())
		}
		// Direction preserved: u should be a positive real multiple of v.
		ratio := u.Hdot(v)
		if imag(ratio) > eps || real(ratio) <= 0 {
			t.Fatalf("normalization changed direction: ratio %v", ratio)
		}
	}
	zero := NewVector(4)
	if got := zero.Clone().Normalize(); got.Norm() != 0 {
		t.Fatalf("normalizing zero vector changed it: %v", got)
	}
}

func TestAddSubScale(t *testing.T) {
	v := Vector{1, 2i}
	u := Vector{3, -1}
	if got := v.Add(u); !almostEqC(got[0], 4) || !almostEqC(got[1], -1+2i) {
		t.Fatalf("Add = %v", got)
	}
	if got := v.Sub(u); !almostEqC(got[0], -2) || !almostEqC(got[1], 1+2i) {
		t.Fatalf("Sub = %v", got)
	}
	if got := v.Scaled(2i); !almostEqC(got[0], 2i) || !almostEqC(got[1], -4) {
		t.Fatalf("Scaled = %v", got)
	}
	w := v.Clone()
	w.AddScaled(2, u)
	if !almostEqC(w[0], 7) || !almostEqC(w[1], -2+2i) {
		t.Fatalf("AddScaled = %v", w)
	}
}

func TestMaxAbs(t *testing.T) {
	v := Vector{1, -3i, 2 + 2i}
	mag, idx := v.MaxAbs()
	if idx != 1 || !almostEq(mag, 3) {
		t.Fatalf("MaxAbs = (%g, %d)", mag, idx)
	}
	empty := Vector{}
	if _, idx := empty.MaxAbs(); idx != -1 {
		t.Fatalf("MaxAbs on empty should return index -1, got %d", idx)
	}
}

// Property: Cauchy-Schwarz |⟨v,u⟩| ≤ ‖v‖‖u‖. This inequality underlies the
// optimal-beamforming derivation (Eq. 4 of the paper).
func TestCauchySchwarzProperty(t *testing.T) {
	f := func(re1, im1, re2, im2, re3, im3, re4, im4 float64) bool {
		v := Vector{complex(clampf(re1), clampf(im1)), complex(clampf(re2), clampf(im2))}
		u := Vector{complex(clampf(re3), clampf(im3)), complex(clampf(re4), clampf(im4))}
		return cmplx.Abs(v.Hdot(u)) <= v.Norm()*u.Norm()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the MRT weight w = conj(h)/‖h‖ maximizes |hᵀw| over unit-norm w.
// Any random competitor must do no better.
func TestMRTOptimalityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(8)
		h := randVec(rng, n)
		wopt := h.Conj().Normalize()
		best := cmplx.Abs(h.Dot(wopt))
		w := randVec(rng, n).Normalize()
		if got := cmplx.Abs(h.Dot(w)); got > best+1e-9 {
			t.Fatalf("random weight beat MRT: %g > %g", got, best)
		}
		if !almostEq(best, h.Norm()) {
			t.Fatalf("MRT gain %g != ‖h‖ %g", best, h.Norm())
		}
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	_ = Vector{1}.Dot(Vector{1, 2})
}

func clampf(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e6)
}
