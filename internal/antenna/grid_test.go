package antenna

import (
	"math"
	"sync"
	"testing"
)

func TestSteeringGridMatchesDirect(t *testing.T) {
	u := NewULA(8, 28e9)
	g := u.SteeringGrid(-math.Pi/3, math.Pi/3, 41)
	if g.Len() != 41 {
		t.Fatalf("grid length %d, want 41", g.Len())
	}
	w := u.SingleBeam(0.3)
	for i, th := range g.Thetas {
		got, direct := g.Gain(i, w), u.Gain(w, th)
		if d := math.Abs(got - direct); d > 1e-12 {
			t.Fatalf("grid gain at θ=%g differs from direct: %g vs %g", th, got, direct)
		}
		if d := math.Abs(g.GainDB(i, w) - u.GainDB(w, th)); d > 1e-9 {
			t.Fatalf("grid dB gain at θ=%g differs from direct", th)
		}
	}
	// Endpoints and spacing.
	if g.Thetas[0] != -math.Pi/3 || g.Thetas[40] != math.Pi/3 {
		t.Fatalf("grid span [%g, %g]", g.Thetas[0], g.Thetas[40])
	}
}

func TestSteeringGridCacheSharing(t *testing.T) {
	u1 := NewULA(8, 28e9)
	u2 := NewULA(8, 28e9) // same geometry, different instance
	a := u1.SteeringGrid(-1, 1, 25)
	b := u2.SteeringGrid(-1, 1, 25)
	if a != b {
		t.Fatal("same geometry+span should share one cached grid")
	}
	if c := u1.SteeringGrid(-1, 1, 26); c == a {
		t.Fatal("different resolution must not share a grid")
	}
	if d := NewULA(16, 28e9).SteeringGrid(-1, 1, 25); d == a {
		t.Fatal("different element count must not share a grid")
	}
	if e := NewULA(8, 60e9).SteeringGrid(-1, 1, 25); e == a {
		t.Fatal("different carrier must not share a grid")
	}
}

func TestSteeringGridSinglePoint(t *testing.T) {
	u := NewULA(4, 28e9)
	g := u.SteeringGrid(0.5, 1.5, 1)
	if g.Len() != 1 || g.Thetas[0] != 0.5 {
		t.Fatalf("single-point grid = %v", g.Thetas)
	}
	if h := u.SteeringGrid(0.5, 1.5, 0); h.Len() != 1 {
		t.Fatalf("points<1 should clamp to 1, got %d", h.Len())
	}
}

// TestSteeringGridConcurrent exercises the cache from concurrent readers;
// run under -race this proves the grid read path needs no locking.
func TestSteeringGridConcurrent(t *testing.T) {
	u := NewULA(8, 28e9)
	w := u.SingleBeam(0)
	ref := u.SteeringGrid(-1.2, 1.2, 33)
	want := make([]float64, ref.Len())
	for i := range want {
		want[i] = ref.Gain(i, w)
	}
	var wg sync.WaitGroup
	fail := make([]bool, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 100; iter++ {
				grid := u.SteeringGrid(-1.2, 1.2, 33)
				for i := range want {
					if grid.Gain(i, w) != want[i] {
						fail[g] = true
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, f := range fail {
		if f {
			t.Fatal("concurrent grid pattern mismatch")
		}
	}
}
