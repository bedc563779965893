package superres

import (
	"math"
	"math/rand"
	"testing"

	"mmreliable/internal/cmx"
)

// TestPeakIndexMatchesMaxAbs pins peakIndex to cmx.Vector.MaxAbs's index —
// first index of the largest magnitude — on random vectors at every scale,
// on exact magnitude ties, on ties one ulp apart, and on NaN, infinite,
// denormal and overflowing taps.
func TestPeakIndexMatchesMaxAbs(t *testing.T) {
	check := func(tag string, v cmx.Vector) {
		t.Helper()
		if _, want := v.MaxAbs(); peakIndex(v) != want {
			t.Fatalf("%s: peakIndex %d, MaxAbs %d on %v", tag, peakIndex(v), want, v)
		}
	}
	check("empty", cmx.Vector{})
	check("3-4-5 tie", cmx.Vector{3 + 4i, 5})
	check("3-4-5 tie reversed", cmx.Vector{5, 3 + 4i})
	check("four-way tie", cmx.Vector{1, 0, 4 - 3i, -5, 5i, 3 + 4i})
	check("zeros", cmx.Vector{0, 0, 0})
	check("NaN leader", cmx.Vector{complex(math.NaN(), 0), 5, 7})
	check("NaN later", cmx.Vector{1, complex(math.NaN(), 1), 0.5})
	check("Inf with NaN", cmx.Vector{1, complex(math.Inf(-1), math.NaN()), 2})
	check("overflowing squares", cmx.Vector{1e200, 2e200i, 2e200, 1})
	check("denormal squares", cmx.Vector{1e-310, 3e-310i, 2e-310, 3e-310})
	one := math.Nextafter(5, 6)
	check("one ulp above", cmx.Vector{3 + 4i, complex(one, 0), 5})
	check("one ulp below", cmx.Vector{complex(one, 0), 3 + 4i, 5})

	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20000; trial++ {
		n := 1 + rng.Intn(64)
		scale := math.Pow(2, float64(rng.Intn(2100)-1050))
		v := make(cmx.Vector, n)
		for i := range v {
			v[i] = complex(rng.NormFloat64()*scale, rng.NormFloat64()*scale)
			switch rng.Intn(8) {
			case 0: // exact repeat of an earlier tap, possibly conjugated
				j := rng.Intn(i + 1)
				v[i] = v[j]
				if rng.Intn(2) == 0 {
					v[i] = complex(imag(v[j]), -real(v[j]))
				}
			case 1: // one ulp away from an earlier tap
				j := rng.Intn(i + 1)
				v[i] = complex(math.Nextafter(real(v[j]), math.Inf(1)), imag(v[j]))
			}
		}
		check("random", v)
	}
}
