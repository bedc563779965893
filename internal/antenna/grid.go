package antenna

import (
	"math"
	"sync"

	"mmreliable/internal/cmx"
)

// SteeringGrid is a read-only cache of steering vectors sampled on a
// uniform angle grid. Dense pattern sweeps (Fig. 13d-style plots, lobe
// scans, codebook evaluations) re-evaluate a(θ) at the same angles for
// every candidate weight vector; the grid computes each steering vector
// once and then answers Gain/Pattern queries with a plain dot product.
//
// Grids are immutable after construction and memoized process-wide by
// (array geometry, angle span, resolution), so concurrent trials under the
// parallel experiment runner share one grid without synchronization on the
// read path.
type SteeringGrid struct {
	// Thetas are the grid angles in radians, ascending.
	Thetas []float64
	vecs   []cmx.Vector
}

type gridKey struct {
	n       int
	spacing float64
	lambda  float64
	lo, hi  float64
	points  int
}

var gridCache sync.Map // gridKey → *SteeringGrid

// SteeringGrid returns the cached steering-vector grid of `points` angles
// uniformly spanning [lo, hi] radians for this array geometry, computing it
// on first use. points must be ≥ 1 (a single point collapses to lo).
func (u *ULA) SteeringGrid(lo, hi float64, points int) *SteeringGrid {
	if points < 1 {
		points = 1
	}
	key := gridKey{n: u.N, spacing: u.Spacing, lambda: u.Lambda, lo: lo, hi: hi, points: points}
	if v, ok := gridCache.Load(key); ok {
		return v.(*SteeringGrid)
	}
	g := &SteeringGrid{
		Thetas: make([]float64, points),
		vecs:   make([]cmx.Vector, points),
	}
	for i := range g.Thetas {
		th := lo
		if points > 1 {
			th = lo + (hi-lo)*float64(i)/float64(points-1)
		}
		g.Thetas[i] = th
		g.vecs[i] = u.SteeringInto(th, nil)
	}
	v, _ := gridCache.LoadOrStore(key, g)
	return v.(*SteeringGrid)
}

// Len returns the number of grid points.
func (g *SteeringGrid) Len() int { return len(g.Thetas) }

// Gain returns the power gain |a(θᵢ)ᵀw|² of w at grid point i.
func (g *SteeringGrid) Gain(i int, w cmx.Vector) float64 {
	d := g.vecs[i].Dot(w)
	return real(d)*real(d) + imag(d)*imag(d)
}

// GainDB returns Gain at grid point i in decibels.
func (g *SteeringGrid) GainDB(i int, w cmx.Vector) float64 {
	return 10 * math.Log10(g.Gain(i, w))
}
