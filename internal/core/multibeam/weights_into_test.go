package multibeam

import (
	"testing"

	"mmreliable/internal/antenna"
	"mmreliable/internal/cmx"
)

// TestWeightsIntoMatchesWeights pins synthesis into caller buffers to the
// nil-buffer (allocating) call bit for bit, including when dst/scratch carry
// stale content from a previous synthesis.
func TestWeightsIntoMatchesWeights(t *testing.T) {
	u := antenna.NewULA(8, 28e9)
	beams := []Beam{
		Reference(0.1),
		{Angle: -0.4, Amp: 0.6, Phase: 1.2},
		{Angle: 0.7, Amp: 0.3, Phase: -2.0},
	}
	want, err := WeightsInto(u, beams, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	dst := make(cmx.Vector, u.N)
	scratch := make(cmx.Vector, u.N)
	for i := range dst {
		dst[i] = complex(7, -7) // stale content must not leak through
	}
	for it := 0; it < 2; it++ { // second pass runs on dirty buffers
		got, err := WeightsInto(u, beams, dst, scratch)
		if err != nil {
			t.Fatal(err)
		}
		for n := range want {
			if got[n] != want[n] {
				t.Fatalf("iteration %d: weight %d diverges: %v vs %v", it, n, got[n], want[n])
			}
		}
	}
}

// TestWeightsIntoAllocs pins the synthesis to zero allocations when both
// buffers are supplied.
func TestWeightsIntoAllocs(t *testing.T) {
	u := antenna.NewULA(8, 28e9)
	beams := []Beam{Reference(0.1), {Angle: -0.4, Amp: 0.6, Phase: 1.2}}
	dst := make(cmx.Vector, u.N)
	scratch := make(cmx.Vector, u.N)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := WeightsInto(u, beams, dst, scratch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("WeightsInto allocates %.1f objects/op, want 0", allocs)
	}
}
