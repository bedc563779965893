package cmx

import (
	"math/cmplx"
	"math/rand"
	"testing"
)

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return m
}

func TestSolveKnownSystem(t *testing.T) {
	// [1 1; 1 -1] x = [3; 1] → x = [2; 1]
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, -1)
	x, err := Solve(a, Vector{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqC(x[0], 2) || !almostEqC(x[1], 1) {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveComplexSystem(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1i)
	a.Set(0, 1, 2)
	a.Set(1, 0, 3)
	a.Set(1, 1, -1i)
	want := Vector{1 - 1i, 2 + 3i}
	b := a.MulVec(want)
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !almostEqC(x[i], want[i]) {
			t.Fatalf("x[%d] = %v want %v", i, x[i], want[i])
		}
	}
}

func TestSolveRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(12)
		a := randMatrix(rng, n, n)
		want := randVec(rng, n)
		b := a.MulVec(want)
		x, err := Solve(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if d := x.Sub(want).Norm(); d > 1e-7*(1+want.Norm()) {
			t.Fatalf("trial %d: residual %g", trial, d)
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4) // rank 1
	if _, err := Solve(a, Vector{1, 2}); err == nil {
		t.Fatal("expected ErrSingular")
	}
}

func TestSolveRequiresPivoting(t *testing.T) {
	// Zero on the leading diagonal forces a row swap.
	a := NewMatrix(2, 2)
	a.Set(0, 0, 0)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 0)
	x, err := Solve(a, Vector{5, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqC(x[0], 7) || !almostEqC(x[1], 5) {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveNonSquare(t *testing.T) {
	a := NewMatrix(3, 2)
	if _, err := Solve(a, Vector{1, 2, 3}); err == nil {
		t.Fatal("expected error for non-square matrix")
	}
}

func TestGramIsHermitianPSD(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := randMatrix(rng, 9, 4)
	g := a.Gram()
	for i := 0; i < g.Rows; i++ {
		for j := 0; j < g.Cols; j++ {
			if !almostEqC(g.At(i, j), cmplx.Conj(g.At(j, i))) {
				t.Fatalf("Gram not Hermitian at (%d,%d)", i, j)
			}
		}
		if real(g.At(i, i)) < 0 {
			t.Fatalf("Gram diagonal negative at %d", i)
		}
	}
	// xᴴGx ≥ 0 for random x.
	for trial := 0; trial < 20; trial++ {
		x := randVec(rng, 4)
		q := real(x.Hdot(g.MulVec(x)))
		if q < -1e-9 {
			t.Fatalf("Gram not PSD: %g", q)
		}
	}
}

func TestFromColumns(t *testing.T) {
	c0 := Vector{1, 2}
	c1 := Vector{3i, 4}
	m := FromColumns([]Vector{c0, c1})
	if m.Rows != 2 || m.Cols != 2 {
		t.Fatalf("shape %dx%d", m.Rows, m.Cols)
	}
	if !almostEqC(m.At(0, 1), 3i) || !almostEqC(m.At(1, 0), 2) {
		t.Fatalf("content wrong: %v", m)
	}
}
