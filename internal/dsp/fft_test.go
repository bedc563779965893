package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestFFTKnownTransforms(t *testing.T) {
	// Impulse → flat spectrum.
	x := make([]complex128, 8)
	x[0] = 1
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for k, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse FFT bin %d = %v", k, v)
		}
	}
	// DC → impulse at bin 0.
	y := []complex128{1, 1, 1, 1}
	if err := FFT(y); err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(y[0]-4) > 1e-12 {
		t.Fatalf("DC bin = %v", y[0])
	}
	for k := 1; k < 4; k++ {
		if cmplx.Abs(y[k]) > 1e-12 {
			t.Fatalf("bin %d = %v, want 0", k, y[k])
		}
	}
}

func TestFFTSingleTone(t *testing.T) {
	const n = 64
	const bin = 5
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*bin*float64(i)/n))
	}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	for k := range x {
		want := 0.0
		if k == bin {
			want = n
		}
		if math.Abs(cmplx.Abs(x[k])-want) > 1e-9 {
			t.Fatalf("bin %d magnitude %g, want %g", k, cmplx.Abs(x[k]), want)
		}
	}
}

func TestFFTIFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 4, 16, 128, 1024} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		orig := append([]complex128(nil), x...)
		if err := FFT(x); err != nil {
			t.Fatal(err)
		}
		if err := IFFT(x); err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if cmplx.Abs(x[i]-orig[i]) > 1e-9 {
				t.Fatalf("n=%d round-trip error at %d: %v vs %v", n, i, x[i], orig[i])
			}
		}
	}
}

func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 256
	x := make([]complex128, n)
	var timeEnergy float64
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		timeEnergy += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
	}
	if err := FFT(x); err != nil {
		t.Fatal(err)
	}
	var freqEnergy float64
	for _, v := range x {
		freqEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(freqEnergy/float64(n)-timeEnergy) > 1e-6*timeEnergy {
		t.Fatalf("Parseval violated: %g vs %g", freqEnergy/float64(n), timeEnergy)
	}
}

func TestFFTLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n = 32
	a := make([]complex128, n)
	b := make([]complex128, n)
	sum := make([]complex128, n)
	for i := range a {
		a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		sum[i] = 2*a[i] + 3i*b[i]
	}
	if err := FFT(a); err != nil {
		t.Fatal(err)
	}
	if err := FFT(b); err != nil {
		t.Fatal(err)
	}
	if err := FFT(sum); err != nil {
		t.Fatal(err)
	}
	for i := range sum {
		want := 2*a[i] + 3i*b[i]
		if cmplx.Abs(sum[i]-want) > 1e-9 {
			t.Fatalf("linearity broken at %d", i)
		}
	}
}

func TestFFTRejectsNonPow2(t *testing.T) {
	if err := FFT(make([]complex128, 12)); err == nil {
		t.Fatal("expected error for length 12")
	}
	if err := IFFT(make([]complex128, 0)); err == nil {
		t.Fatal("expected error for length 0")
	}
}

func TestPow2Helpers(t *testing.T) {
	cases := []struct {
		n  int
		is bool
	}{
		{1, true}, {2, true}, {3, false}, {4, true},
		{5, false}, {1023, false}, {1024, true}, {0, false},
	}
	for _, c := range cases {
		if IsPow2(c.n) != c.is {
			t.Errorf("IsPow2(%d) = %v", c.n, !c.is)
		}
	}
}

func BenchmarkFFT1024(b *testing.B) {
	x := make([]complex128, 1024)
	rng := rand.New(rand.NewSource(9))
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = FFT(x)
	}
}
