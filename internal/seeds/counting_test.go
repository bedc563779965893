package seeds

import (
	"math/rand"
	"testing"
)

// TestCountingRandMatchesPlain pins that wrapping adds counting without
// perturbing the stream: a counting rand draws the same values as the
// plain construction used before the service layer existed — existing
// seeds stay reproducible.
func TestCountingRandMatchesPlain(t *testing.T) {
	plain := rand.New(rand.NewSource(42))
	counted, cs := NewCountingRand(42)
	for i := 0; i < 200; i++ {
		switch i % 3 {
		case 0:
			if a, b := plain.ExpFloat64(), counted.ExpFloat64(); a != b {
				t.Fatalf("draw %d: ExpFloat64 %v != %v", i, b, a)
			}
		case 1:
			if a, b := plain.Intn(17), counted.Intn(17); a != b {
				t.Fatalf("draw %d: Intn %v != %v", i, b, a)
			}
		default:
			if a, b := plain.Float64(), counted.Float64(); a != b {
				t.Fatalf("draw %d: Float64 %v != %v", i, b, a)
			}
		}
	}
	if cs.Draws() == 0 {
		t.Fatal("no draws counted")
	}
}

// TestCountingSeedResets pins that reseeding zeroes the counter.
func TestCountingSeedResets(t *testing.T) {
	cs := NewCountingSource(1)
	cs.Uint64()
	cs.Int63()
	if cs.Draws() != 2 {
		t.Fatalf("draws = %d, want 2", cs.Draws())
	}
	cs.Seed(1)
	if cs.Draws() != 0 {
		t.Fatalf("draws after Seed = %d, want 0", cs.Draws())
	}
	want := NewCountingSource(1).Uint64()
	if got := cs.Uint64(); got != want {
		t.Fatalf("reseeded stream diverged: %d != %d", got, want)
	}
}
