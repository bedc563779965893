package env

import "math"

// TraceCache memoizes the enumeration half of ray tracing for one moving
// tx–rx pair: which walls the reflection loop considers (the disk candidate
// set) and which walls each occlusion walk tests (the per-leg candidate
// sets). The solve half — reflection points, delays, angles, losses for the
// current pose — is always recomputed, so a cached trace is bit-identical
// to TraceAppend by construction:
//
//   - the disk set is a pure function of the grid-cell rectangle covering
//     the query square, so rectangle equality (plus Index identity) makes
//     the reuse exact, not merely conservative;
//   - each leg set is a *superset* of the walls legCandidates would return
//     for the current leg (see legCandidatesPadded), and transmissionLossOver
//     accumulates only walls that actually intersect the leg, in ascending
//     wall order with the same hard-block early exit, so any ascending
//     superset yields the same floating-point sum bit for bit.
//
// Leg sets exist only for candidates that reached the occlusion walks: a
// reflection rejected earlier (out of range, or arriving behind either
// array) leaves its slots untouched. Leg sets are supersets and never feed
// the output, so this changes how often they are rebuilt, not a path.
//
// A cache belongs to one tx–rx pair (one sim.Scenario); it is not safe for
// concurrent use. The zero value is ready to use.
type TraceCache struct {
	idx *Index // generation key: BuildIndex always allocates a fresh Index,
	// and retaining the pointer here keeps it reachable, so pointer equality
	// can never alias a stale generation to a new one.
	pad float64 // endpoint slack baked into every cached leg set (one cell)

	// Disk candidate cache, keyed on the exact cell rectangle of the query
	// square around the tx–rx midpoint.
	diskValid              bool
	dcx0, dcx1, dcy0, dcy1 int
	disk                   []int32

	// Per-leg occlusion caches: index 0 is the LOS leg, 1+2·wi and 2+2·wi
	// are the tx→hit and hit→rx legs of the reflection off wall wi. Double-
	// bounce and IRS legs are uncached (rare, and absent from the metro hot
	// path).
	legs []*legCache

	// Rebuilds counts enumeration rebuilds (disk-rectangle misses plus leg
	// revalidation failures) so tests can assert reuse actually happens.
	// Only candidates that pass the range test and the cheap front-half
	// test walk their legs (see traceQuery), so a reflection arriving
	// behind either array never builds or revalidates its leg sets and
	// counts nothing.
	Rebuilds int
}

// legCache is one cached occlusion candidate set with the leg endpoints it
// was built around. It stays valid while both current endpoints remain
// within the pad of the cached ones.
type legCache struct {
	a, b  Vec2
	cands []int32
}

// ensure re-anchors the cache to the environment's current index,
// discarding everything when the index generation changed (walls mutated
// and BuildIndex ran, or the cache is fresh).
func (tc *TraceCache) ensure(ix *Index) {
	if tc.idx == ix {
		return
	}
	tc.idx = ix
	tc.pad = ix.cellSize
	tc.diskValid = false
	tc.disk = tc.disk[:0]
	n := 2*ix.nWalls + 1
	if cap(tc.legs) >= n {
		tc.legs = tc.legs[:n]
		for i := range tc.legs {
			tc.legs[i] = nil
		}
	} else {
		tc.legs = make([]*legCache, n)
	}
}

// diskCands returns the reflection candidate set for the disk of radius r
// around c, reusing the cached copy whenever the query's cell rectangle is
// unchanged. diskCandidates is a pure function of that rectangle, so the
// cached copy is exactly what a fresh call would return.
func (tc *TraceCache) diskCands(ix *Index, c Vec2, r float64) []int32 {
	cx0, cx1 := ix.cellX(c.X-r-aabbPad), ix.cellX(c.X+r+aabbPad)
	cy0, cy1 := ix.cellY(c.Y-r-aabbPad), ix.cellY(c.Y+r+aabbPad)
	if tc.diskValid && cx0 == tc.dcx0 && cx1 == tc.dcx1 && cy0 == tc.dcy0 && cy1 == tc.dcy1 {
		return tc.disk
	}
	sc := ix.getScratch()
	tc.disk = append(tc.disk[:0], ix.diskCandidates(sc, c, r)...)
	ix.putScratch(sc)
	tc.diskValid = true
	tc.dcx0, tc.dcx1, tc.dcy0, tc.dcy1 = cx0, cx1, cy0, cy1
	tc.Rebuilds++
	return tc.disk
}

// occlusion is transmissionLoss through the cache: the candidate set for
// the keyed leg is revalidated in O(1) (both endpoints within pad of the
// cached ones) and rebuilt with legCandidatesPadded on failure.
func (tc *TraceCache) occlusion(e *Environment, key int, leg Segment, skip1, skip2 int) (float64, bool) {
	lc := tc.legs[key]
	if lc == nil {
		lc = &legCache{}
		tc.legs[key] = lc
		tc.rebuildLeg(lc, leg)
	} else if !lc.valid(leg, tc.pad) {
		tc.rebuildLeg(lc, leg)
	}
	return e.transmissionLossOver(lc.cands, leg, skip1, skip2)
}

func (tc *TraceCache) rebuildLeg(lc *legCache, leg Segment) {
	sc := tc.idx.getScratch()
	lc.cands = append(lc.cands[:0], tc.idx.legCandidatesPadded(sc, leg, tc.pad)...)
	tc.idx.putScratch(sc)
	lc.a, lc.b = leg.A, leg.B
	tc.Rebuilds++
}

func (lc *legCache) valid(leg Segment, pad float64) bool {
	p2 := pad * pad
	da, db := leg.A.Sub(lc.a), leg.B.Sub(lc.b)
	return da.Dot(da) <= p2 && db.Dot(db) <= p2
}

// distSqToSegment returns the squared distance from p to the segment.
func distSqToSegment(p Vec2, s Segment) float64 {
	d := s.B.Sub(s.A)
	ap := p.Sub(s.A)
	den := d.Dot(d)
	if den > 0 {
		if t := ap.Dot(d) / den; t >= 1 {
			ap = p.Sub(s.B)
		} else if t > 0 {
			ap = ap.Sub(d.Scale(t))
		}
	}
	return ap.Dot(ap)
}

// legCandidatesPadded returns an ascending-sorted candidate set guaranteed
// to contain legCandidates(leg') for every leg' whose endpoints lie within
// pad of this leg's — the revalidation contract legCache.valid checks.
//
// Containment proof. A cell collected by legCandidates(leg') satisfies
// (a) it lies in the cell range of bbox(leg')±aabbPad, and bbox(leg') ⊆
// bbox(leg) inflated by pad, so the padded range below covers it; and
// (b) its center cc has dist(cc, line(leg')) ≤ h where h = halfDiag·(1+1e-9)
// + aabbPad (or leg' is degenerate, handled below). If cc's projection onto
// line(leg') falls beyond an endpoint by s, the bbox bound caps the
// overshoot per axis at cellSize+aabbPad+h, so s ≤ √2·(cellSize+aabbPad+h)
// and dist(cc, segment(leg')) ≤ h + √2·(cellSize+aabbPad+h). Degenerate
// legs collect only cells within that bound of their point anyway. Moving
// each endpoint by ≤ pad moves the nearest segment point by ≤ pad
// (convex interpolation of the endpoint offsets), giving
// dist(cc, segment(leg)) ≤ pad + h + √2·(cellSize+aabbPad+h) = reach.
func (ix *Index) legCandidatesPadded(sc *indexScratch, leg Segment, pad float64) []int32 {
	sc.begin()
	x0 := math.Min(leg.A.X, leg.B.X) - aabbPad - pad
	x1 := math.Max(leg.A.X, leg.B.X) + aabbPad + pad
	y0 := math.Min(leg.A.Y, leg.B.Y) - aabbPad - pad
	y1 := math.Max(leg.A.Y, leg.B.Y) + aabbPad + pad
	cx0, cx1 := ix.cellX(x0), ix.cellX(x1)
	cy0, cy1 := ix.cellY(y0), ix.cellY(y1)
	h := ix.cellSize*math.Sqrt2/2*(1+1e-9) + aabbPad
	reach := pad + h + math.Sqrt2*(ix.cellSize+aabbPad+h)
	reach2 := reach * reach
	for cy := cy0; cy <= cy1; cy++ {
		ccY := ix.minY + (float64(cy)+0.5)*ix.cellSize
		for cx := cx0; cx <= cx1; cx++ {
			cc := Vec2{ix.minX + (float64(cx)+0.5)*ix.cellSize, ccY}
			if distSqToSegment(cc, leg) > reach2 {
				continue
			}
			for _, wi := range ix.cells[cy*ix.nx+cx] {
				sc.add(wi)
			}
		}
	}
	sc.sortCand()
	return sc.cand
}
