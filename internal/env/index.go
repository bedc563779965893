package env

import (
	"math"
	"sync"
)

// Index is a uniform spatial grid over an environment's walls. It turns the
// tracer's two O(walls) inner loops into local queries:
//
//   - occlusion (transmissionLoss) walks only the grid cells within half a
//     cell diagonal of the leg, instead of testing every wall;
//   - reflection candidate enumeration (when Environment.MaxRangeM > 0)
//     collects only walls within the disk of radius MaxRangeM/2 around the
//     tx–rx midpoint — any reflection point of a path with total length
//     d ≤ MaxRangeM lies inside the ellipse with foci tx, rx and major axis
//     MaxRangeM, which that disk contains (for double bounces the triangle
//     inequality bounds each of q1, q2 the same way).
//
// Both queries are conservative supersets of the walls the brute-force
// tracer would act on, and candidates are deduplicated and sorted into
// ascending wall index before use, so the indexed tracer repeats the
// reference tracer's floating-point accumulation order exactly: path sets,
// loss sums, ordering and MaxPaths truncation are bit-identical (pinned by
// TestIndexedTraceMatchesReference).
//
// The grid is immutable after BuildIndex and safe for concurrent tracing;
// per-query scratch (epoch-stamped dedup marks and the candidate list)
// comes from a sync.Pool so the steady-state trace path stays off the
// allocator.
type Index struct {
	minX, minY float64
	cellSize   float64
	nx, ny     int
	cells      [][]int32
	nWalls     int
	scratch    sync.Pool
}

// indexScratch is the per-query workspace: stamp[w] == epoch marks wall w
// as already collected this query, and cand accumulates the deduplicated
// candidate indices.
type indexScratch struct {
	epoch uint32
	stamp []uint32
	cand  []int32
}

// aabbPad inflates wall bounding boxes and query boxes so walls lying
// exactly on cell boundaries register on both sides and floating-point
// rounding at cell edges can never drop a candidate.
const aabbPad = 1e-7

// BuildIndex builds (or rebuilds) the spatial index over the current wall
// set. Call it after the walls are final; mutating Walls afterwards without
// rebuilding leaves the index stale. Environments that never call it trace
// exactly as before with the brute-force loops.
func (e *Environment) BuildIndex() {
	e.idx = buildIndex(e.Walls)
}

func buildIndex(walls []Wall) *Index {
	if len(walls) == 0 {
		return nil
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, w := range walls {
		minX = math.Min(minX, math.Min(w.Seg.A.X, w.Seg.B.X))
		maxX = math.Max(maxX, math.Max(w.Seg.A.X, w.Seg.B.X))
		minY = math.Min(minY, math.Min(w.Seg.A.Y, w.Seg.B.Y))
		maxY = math.Max(maxY, math.Max(w.Seg.A.Y, w.Seg.B.Y))
	}
	minX -= aabbPad
	minY -= aabbPad
	maxX += aabbPad
	maxY += aabbPad
	// ~64 cells across the longer extent keeps per-cell wall lists short in
	// metro scenes while staying coarse enough that short indoor walls don't
	// shatter across hundreds of cells; the 0.5 m floor bounds the grid for
	// room-scale environments.
	ext := math.Max(maxX-minX, maxY-minY)
	cs := math.Max(ext/64, 0.5)
	ix := &Index{
		minX:     minX,
		minY:     minY,
		cellSize: cs,
		nx:       int((maxX-minX)/cs) + 1,
		ny:       int((maxY-minY)/cs) + 1,
		nWalls:   len(walls),
	}
	ix.cells = make([][]int32, ix.nx*ix.ny)
	for i, w := range walls {
		x0 := math.Min(w.Seg.A.X, w.Seg.B.X) - aabbPad
		x1 := math.Max(w.Seg.A.X, w.Seg.B.X) + aabbPad
		y0 := math.Min(w.Seg.A.Y, w.Seg.B.Y) - aabbPad
		y1 := math.Max(w.Seg.A.Y, w.Seg.B.Y) + aabbPad
		cx0, cx1 := ix.cellX(x0), ix.cellX(x1)
		cy0, cy1 := ix.cellY(y0), ix.cellY(y1)
		for cy := cy0; cy <= cy1; cy++ {
			for cx := cx0; cx <= cx1; cx++ {
				c := cy*ix.nx + cx
				ix.cells[c] = append(ix.cells[c], int32(i))
			}
		}
	}
	n := len(walls)
	ix.scratch.New = func() any {
		return &indexScratch{stamp: make([]uint32, n), cand: make([]int32, 0, 64)}
	}
	return ix
}

func (ix *Index) cellX(x float64) int {
	c := int((x - ix.minX) / ix.cellSize)
	if c < 0 {
		c = 0
	}
	if c >= ix.nx {
		c = ix.nx - 1
	}
	return c
}

func (ix *Index) cellY(y float64) int {
	c := int((y - ix.minY) / ix.cellSize)
	if c < 0 {
		c = 0
	}
	if c >= ix.ny {
		c = ix.ny - 1
	}
	return c
}

func (ix *Index) getScratch() *indexScratch   { return ix.scratch.Get().(*indexScratch) }
func (ix *Index) putScratch(sc *indexScratch) { ix.scratch.Put(sc) }

// begin opens a new dedup epoch and resets the candidate list.
func (sc *indexScratch) begin() {
	sc.epoch++
	if sc.epoch == 0 { // wrapped: clear stamps and restart at 1
		for i := range sc.stamp {
			sc.stamp[i] = 0
		}
		sc.epoch = 1
	}
	sc.cand = sc.cand[:0]
}

func (sc *indexScratch) add(wi int32) {
	if sc.stamp[wi] != sc.epoch {
		sc.stamp[wi] = sc.epoch
		sc.cand = append(sc.cand, wi)
	}
}

// sortCand insertion-sorts the candidate list into ascending wall index.
// Ascending order is load-bearing: transmissionLoss accumulates per-wall
// losses in index order and early-exits at the hard-block threshold, so any
// other visitation order could change the floating-point sum or which wall
// trips the exit. Candidate counts are small (walls near one leg or disk),
// so insertion sort beats sort.Slice here.
func (sc *indexScratch) sortCand() {
	s := sc.cand
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

// legCandidates returns the ascending-sorted superset of walls that can
// intersect leg: all walls registered in grid cells whose center lies
// within half a cell diagonal of the leg's supporting line, restricted to
// the leg's bounding box. Any cell the leg actually passes through contains
// a point of the line, which is necessarily within halfDiag of that cell's
// center, so the band test never excludes a cell the leg touches.
func (ix *Index) legCandidates(sc *indexScratch, leg Segment) []int32 {
	sc.begin()
	x0, x1 := math.Min(leg.A.X, leg.B.X)-aabbPad, math.Max(leg.A.X, leg.B.X)+aabbPad
	y0, y1 := math.Min(leg.A.Y, leg.B.Y)-aabbPad, math.Max(leg.A.Y, leg.B.Y)+aabbPad
	cx0, cx1 := ix.cellX(x0), ix.cellX(x1)
	cy0, cy1 := ix.cellY(y0), ix.cellY(y1)
	d := leg.B.Sub(leg.A)
	dlen := math.Hypot(d.X, d.Y)
	// |cross(d, center−A)| ≤ band  ⇔  dist(center, line) ≤ halfDiag + pad.
	halfDiag := ix.cellSize * math.Sqrt2 / 2
	band := (halfDiag*(1+1e-9) + aabbPad) * dlen
	degenerate := dlen < 1e-12
	for cy := cy0; cy <= cy1; cy++ {
		ccY := ix.minY + (float64(cy)+0.5)*ix.cellSize
		for cx := cx0; cx <= cx1; cx++ {
			if !degenerate {
				ccX := ix.minX + (float64(cx)+0.5)*ix.cellSize
				cr := d.X*(ccY-leg.A.Y) - d.Y*(ccX-leg.A.X)
				if math.Abs(cr) > band {
					continue
				}
			}
			for _, wi := range ix.cells[cy*ix.nx+cx] {
				sc.add(wi)
			}
		}
	}
	sc.sortCand()
	return sc.cand
}

// diskCandidates returns the ascending-sorted superset of walls registered
// in cells overlapping the square of half-width r around c (the square
// contains the disk of radius r, so this over-approximates safely).
func (ix *Index) diskCandidates(sc *indexScratch, c Vec2, r float64) []int32 {
	sc.begin()
	cx0, cx1 := ix.cellX(c.X-r-aabbPad), ix.cellX(c.X+r+aabbPad)
	cy0, cy1 := ix.cellY(c.Y-r-aabbPad), ix.cellY(c.Y+r+aabbPad)
	for cy := cy0; cy <= cy1; cy++ {
		for cx := cx0; cx <= cx1; cx++ {
			for _, wi := range ix.cells[cy*ix.nx+cx] {
				sc.add(wi)
			}
		}
	}
	sc.sortCand()
	return sc.cand
}
