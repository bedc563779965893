package dsp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEWMAConvergesToConstant(t *testing.T) {
	e := NewEWMA(0.3)
	for i := 0; i < 100; i++ {
		e.Update(5)
	}
	if math.Abs(e.Value()-5) > 1e-9 {
		t.Fatalf("EWMA did not converge: %g", e.Value())
	}
}

func TestEWMAFirstSampleSeeds(t *testing.T) {
	e := NewEWMA(0.1)
	if e.Started() {
		t.Fatal("EWMA started before any update")
	}
	if got := e.Update(42); got != 42 {
		t.Fatalf("first update = %g", got)
	}
	if !e.Started() {
		t.Fatal("EWMA not started after update")
	}
	e.Reset()
	if e.Started() || e.Value() != 0 {
		t.Fatal("reset did not clear state")
	}
}

func TestEWMABadAlphaPanics(t *testing.T) {
	for _, alpha := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("alpha %g should panic", alpha)
				}
			}()
			NewEWMA(alpha)
		}()
	}
}

// Property: EWMA output always lies within the min/max envelope of its
// inputs.
func TestEWMAEnvelopeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		e := NewEWMA(0.4)
		lo, hi := xs[0], xs[0]
		for _, v := range xs {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
			e.Update(v)
		}
		return e.Value() >= lo-1e-9 && e.Value() <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSlopePerSample(t *testing.T) {
	// Exact line y = 3 − 2i.
	y := []float64{3, 1, -1, -3, -5}
	if got := SlopePerSample(y); math.Abs(got+2) > 1e-12 {
		t.Fatalf("slope = %g want -2", got)
	}
	if got := SlopePerSample([]float64{7}); got != 0 {
		t.Fatalf("single sample slope = %g", got)
	}
	if got := SlopePerSample(nil); got != 0 {
		t.Fatalf("nil slope = %g", got)
	}
	// Constant series → slope 0.
	if got := SlopePerSample([]float64{4, 4, 4, 4}); math.Abs(got) > 1e-12 {
		t.Fatalf("constant slope = %g", got)
	}
}

func TestConversions(t *testing.T) {
	if math.Abs(DB(100)-20) > 1e-12 {
		t.Fatalf("DB(100) = %g", DB(100))
	}
	if math.Abs(FromDB(3)-1.9952623) > 1e-6 {
		t.Fatalf("FromDB(3) = %g", FromDB(3))
	}
	if math.Abs(AmpDB(10)-20) > 1e-12 {
		t.Fatalf("AmpDB(10) = %g", AmpDB(10))
	}
	if math.Abs(AmpFromDB(-6)-0.5011872) > 1e-6 {
		t.Fatalf("AmpFromDB(-6) = %g", AmpFromDB(-6))
	}
	// Round trips.
	for _, v := range []float64{0.1, 1, 42} {
		if math.Abs(FromDB(DB(v))-v) > 1e-12*v {
			t.Fatalf("dB round trip failed for %g", v)
		}
	}
	if !math.IsInf(DB(0), -1) {
		t.Fatal("DB(0) should be -Inf")
	}
}

func TestWrapPhase(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, -math.Pi},
		{-math.Pi, -math.Pi}, // [−π, π) convention
		{3 * math.Pi, -math.Pi},
		{2 * math.Pi, 0},
		{-0.5, -0.5},
		{7, 7 - 2*math.Pi},
	}
	for _, c := range cases {
		if got := WrapPhase(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("WrapPhase(%g) = %g want %g", c.in, got, c.want)
		}
	}
}
