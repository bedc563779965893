package env

import (
	"fmt"
	"math"
)

// Material describes how a wall interacts with an mmWave signal. Losses are
// in dB of power. Typical mmWave values (paper §3.2 and the measurement
// studies it cites): metal ≈ 1 dB reflection, concrete ≈ 5 dB, tinted glass
// ≈ 6 dB, drywall ≈ 9 dB; transmission through structural walls is 20–40 dB
// (often a complete blockage at the link budget of a directional link).
type Material struct {
	Name       string
	ReflLossDB float64 // power loss on specular reflection
	TransLossD float64 // power loss on transmission through the wall
}

// Standard materials.
var (
	Metal    = Material{Name: "metal", ReflLossDB: 1, TransLossD: 60}
	Concrete = Material{Name: "concrete", ReflLossDB: 5, TransLossD: 40}
	Glass    = Material{Name: "glass", ReflLossDB: 6, TransLossD: 8}
	Drywall  = Material{Name: "drywall", ReflLossDB: 9, TransLossD: 12}
	Wood     = Material{Name: "wood", ReflLossDB: 10, TransLossD: 15}
)

// Wall is a reflective segment in the environment.
type Wall struct {
	Seg Segment
	Mat Material
}

// Pose is the position and broadside orientation of an array. Facing is the
// direction (radians, world frame) the array broadside points toward.
type Pose struct {
	Pos    Vec2
	Facing float64
}

// Path is one propagation path between transmitter and receiver.
type Path struct {
	AoD     float64 // angle of departure relative to TX broadside (radians)
	AoA     float64 // angle of arrival relative to RX broadside (radians)
	Dist    float64 // total traveled distance (m)
	Delay   float64 // time of flight (s)
	LossDB  float64 // total power loss (path loss + reflection + transmission)
	PhasePi bool    // extra π phase flip from an odd number of reflections
	Refl    int     // number of reflections (0 for LOS)
	Via     int     // index of the first reflecting wall, −1 for LOS, −2−i via IRS i
	Via2    int     // index of the second reflecting wall, −1 otherwise
}

// ID returns a stable identity key for the path derived from its reflecting
// walls, usable for matching "the same physical path" across re-traces as
// the terminals move.
func (p Path) ID() int {
	return (p.Via+1)*100000 + (p.Via2 + 1)
}

// Amplitude returns the linear field amplitude of the path (10^(−loss/20)).
func (p Path) Amplitude() float64 { return math.Pow(10, -p.LossDB/20) }

// Environment is a set of walls plus a band model.
type Environment struct {
	Walls []Wall
	// IRSs are intelligent reflecting surfaces (engineered reflectors, §8).
	IRSs []IRS
	Band Band
	// FrontHalfOnly drops paths that depart or arrive more than 90° off
	// the respective array broadside (a phased-array panel radiates into a
	// half space). Default true via NewEnvironment.
	FrontHalfOnly bool
	// MaxPaths limits the number of returned paths (strongest first);
	// 0 means no limit.
	MaxPaths int
	// MaxOrder is the highest reflection order traced: 1 (default) for
	// single bounces, 2 adds double bounces via the image-of-image method.
	// Double bounces matter in highly reflective rooms where the paper's
	// angular scans show more than three viable directions.
	MaxOrder int
	// MaxRangeM drops every path whose total traveled distance exceeds it;
	// 0 means unlimited. At metro scale a bounce 500 m away is tens of dB
	// below the noise floor, and a finite range is what lets the spatial
	// index prune reflection candidates to the disk around the tx–rx
	// midpoint (see Index). Enforced identically by the brute-force and
	// indexed tracers.
	MaxRangeM float64

	// idx is the optional spatial index over Walls (see BuildIndex). Nil
	// means brute-force tracing — the reference tracer the indexed one is
	// pinned against.
	idx *Index
}

// NewEnvironment returns an environment on the given band with panel
// (front-half-space) arrays.
func NewEnvironment(band Band, walls ...Wall) *Environment {
	return &Environment{Walls: walls, Band: band, FrontHalfOnly: true, MaxOrder: 1}
}

// Trace returns all zero- and first-order propagation paths from tx to rx,
// sorted by increasing loss (strongest first). It never returns an empty,
// non-nil slice: if every path is occluded beyond recovery the result is
// empty.
func (e *Environment) Trace(tx, rx Pose) []Path {
	return e.TraceAppend(nil, tx, rx)
}

// TraceAppend is Trace appending onto dst (usually dst[:0] of a slice kept
// across simulation slots), so per-slot ray tracing reuses one backing
// array instead of growing a fresh one. The appended section is sorted by
// the contractual (LossDB, Via, Via2) ordering (see pathLess) with an
// insertion sort — path counts are single-digit, and it avoids sort.Slice's
// closure and reflect-based swapper on the per-slot path.
func (e *Environment) TraceAppend(dst []Path, tx, rx Pose) []Path {
	return e.traceAppend(nil, dst, tx, rx)
}

// TraceAppendCached is TraceAppend with the enumeration half memoized in tc
// (see TraceCache): the reflection candidate disk and the per-leg occlusion
// candidate sets are reused across calls while their exact revalidation
// tests hold, and only the per-pose solve runs. Output is bit-identical to
// TraceAppend. A nil tc, an environment without a spatial index,
// or an unbounded range (MaxRangeM == 0) all fall back to TraceAppend.
func (e *Environment) TraceAppendCached(tc *TraceCache, dst []Path, tx, rx Pose) []Path {
	if tc == nil || e.idx == nil || e.MaxRangeM <= 0 {
		return e.TraceAppend(dst, tx, rx)
	}
	return e.traceAppend(tc, dst, tx, rx)
}

func (e *Environment) traceAppend(tc *TraceCache, dst []Path, tx, rx Pose) []Path {
	if tc != nil {
		tc.ensure(e.idx)
	}
	q := traceQuery{tc: tc, tx: tx, rx: rx}
	if e.FrontHalfOnly {
		q.ftx, q.frx = broadside(tx.Facing), broadside(rx.Facing)
	}
	start := len(dst)
	paths := e.appendLOS(&q, dst)
	if ix := e.idx; ix != nil && e.MaxRangeM > 0 {
		// Indexed reflection enumeration: every wall able to host a
		// reflection point of a path with Dist ≤ MaxRangeM lies within
		// MaxRangeM/2 of the tx–rx midpoint (ellipse containment; the
		// triangle inequality extends the bound to both double-bounce
		// points), so walls outside the disk candidates cannot produce a
		// surviving path and skipping them leaves the path set unchanged.
		// Each distinct path kind carries a distinct (Via, Via2) key, so
		// the contractual sort below erases any generation-order
		// difference versus the brute-force loops.
		mid := Vec2{(tx.Pos.X + rx.Pos.X) / 2, (tx.Pos.Y + rx.Pos.Y) / 2}
		var sc *indexScratch
		var cands []int32
		if tc != nil {
			cands = tc.diskCands(ix, mid, e.MaxRangeM/2)
		} else {
			sc = ix.getScratch()
			cands = ix.diskCandidates(sc, mid, e.MaxRangeM/2)
		}
		for _, wi := range cands {
			paths = e.appendReflected(&q, paths, int(wi))
		}
		for i := range e.IRSs {
			paths = e.appendIRS(&q, paths, i)
		}
		if e.MaxOrder >= 2 {
			for _, wi := range cands {
				for _, wj := range cands {
					if wi != wj {
						paths = e.appendDoubleReflected(&q, paths, int(wi), int(wj))
					}
				}
			}
		}
		if sc != nil {
			ix.putScratch(sc)
		}
	} else {
		// First-order reflections via the image method.
		for wi := range e.Walls {
			paths = e.appendReflected(&q, paths, wi)
		}
		// Engineered reflections via intelligent reflecting surfaces.
		for i := range e.IRSs {
			paths = e.appendIRS(&q, paths, i)
		}
		// Second-order reflections via the image-of-image method.
		if e.MaxOrder >= 2 {
			for wi := range e.Walls {
				for wj := range e.Walls {
					if wi != wj {
						paths = e.appendDoubleReflected(&q, paths, wi, wj)
					}
				}
			}
		}
	}
	s := paths[start:]
	for i := 1; i < len(s); i++ {
		p := s[i]
		j := i - 1
		for j >= 0 && pathLess(p, s[j]) {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = p
	}
	if e.MaxPaths > 0 && len(s) > e.MaxPaths {
		paths = paths[:start+e.MaxPaths]
	}
	return paths
}

// traceQuery is one trace's terminals and optional trace cache, plus the
// broadside unit vectors of both arrays for the cheap front-half test
// (zero vectors, which never reject, when FrontHalfOnly is off).
//
// Every path kind is admitted in the same order: geometry (the image-
// method intersections), range, the cheap front-half test (backHalf), the
// occlusion walks, the exact front-half test (angles), and last the path
// loss. Each test is a pure function of the poses and the scene, so the
// order decides only how early a doomed candidate is dropped, never which
// candidates survive or their bits. Back-half reflections are the common
// case (a panel sees half the reflectors around it), and rejecting them
// first spares them the occlusion walks, two atan2 and a log10; the exact
// test runs after the walks because it rarely rejects what backHalf
// passed, and its two atan2 are wasted on a blocked path.
type traceQuery struct {
	tc       *TraceCache
	tx, rx   Pose
	ftx, frx Vec2
}

// backHalf reports whether a path that departs along dTx and arrives from
// dRx (both pointing away from their terminal) certainly leaves or enters
// an array through its back half space; see behind.
func (q *traceQuery) backHalf(dTx, dRx Vec2) bool {
	return behind(dTx, q.ftx) || behind(dRx, q.frx)
}

// maxCheapFacing bounds the facing (radians) for which the cheap front-half
// test is armed; see behind.
const maxCheapFacing = 1024

// broadside returns the unit vector a facing points along, or the zero
// vector (which disarms behind) for a facing beyond ±maxCheapFacing or
// not finite.
func broadside(facing float64) Vec2 {
	if !(math.Abs(facing) <= maxCheapFacing) {
		return Vec2{}
	}
	s, c := math.Sincos(facing)
	return Vec2{c, s}
}

// behind is the cheap, conservative half of the front-half rule: it
// reports true only when direction v points so clearly into the back half
// space of broadside unit vector f that the exact test (relAngle beyond
// ±π/2) must reject it too. Anything it does not reject goes on to the
// exact test unchanged.
//
// The margin argument. Let L = |v.x|+|v.y| ≥ |v| and u = 2⁻⁵³. The
// computed v·f is within 2u·L of the exact product with the computed f,
// and Sincos's components lie within a few u of the true cos and sin, so
// the computed v·f is within 1e-14·L of v·f for the true broadside. A
// computed v·f < −1e-9·L therefore means the true angle θ between v and
// the broadside has cos θ < −(1e-9 − 1e-14), i.e. |θ| > π/2 + 9.9e-10.
// relAngle's atan2, subtraction and wrap loop (at most 164 turns of 2π for
// |facing| ≤ maxCheapFacing, each rounding by at most u·(π+1024)) put the
// computed angle within 2e-11 of θ, so it lands beyond ±π/2 too and the
// exact test rejects. NaN or infinite components make the comparison
// false, which defers to the exact test.
func behind(v, f Vec2) bool {
	return v.X*f.X+v.Y*f.Y < -1e-9*(math.Abs(v.X)+math.Abs(v.Y))
}

// angles returns the AoD and AoA of a path that departs along dTx and
// arrives from dRx; ok is false when the exact front-half rule rejects it.
func (e *Environment) angles(q *traceQuery, dTx, dRx Vec2) (aod, aoa float64, ok bool) {
	aod = relAngle(dTx, q.tx.Facing)
	if e.FrontHalfOnly && math.Abs(aod) > math.Pi/2 {
		return 0, 0, false
	}
	aoa = relAngle(dRx, q.rx.Facing)
	if e.FrontHalfOnly && math.Abs(aoa) > math.Pi/2 {
		return 0, 0, false
	}
	return aod, aoa, true
}

// outOfRange reports whether a path of total length d is degenerate or
// beyond MaxRangeM.
func (e *Environment) outOfRange(d float64) bool {
	return d < 1e-9 || (e.MaxRangeM > 0 && d > e.MaxRangeM)
}

// pathLess is the contractual path ordering: increasing loss, with exact
// loss ties broken by the (Via, Via2) identity key. The tie-break matters
// under MaxPaths truncation — symmetric scenes produce bit-identical losses
// on mirror-image paths, and which one survives the cut must not depend on
// generation or sort-visitation order. Any alternative tracer (the spatial-
// indexed one in particular) must reproduce this ordering exactly.
func pathLess(a, b Path) bool {
	if a.LossDB != b.LossDB {
		return a.LossDB < b.LossDB
	}
	if a.Via != b.Via {
		return a.Via < b.Via
	}
	return a.Via2 < b.Via2
}

// occlusion routes a leg's transmission-loss walk through the trace cache
// when one is active; legKey identifies the leg's slot in the cache (0 for
// LOS, 1+2·wi / 2+2·wi for the legs of the reflection off wall wi).
func (e *Environment) occlusion(tc *TraceCache, legKey int, leg Segment, skip1, skip2 int) (float64, bool) {
	if tc != nil {
		return tc.occlusion(e, legKey, leg, skip1, skip2)
	}
	return e.transmissionLoss(leg, skip1, skip2)
}

// appendLOS appends the direct path, if it survives.
func (e *Environment) appendLOS(q *traceQuery, dst []Path) []Path {
	d := q.tx.Pos.Dist(q.rx.Pos)
	if e.outOfRange(d) {
		return dst
	}
	dTx, dRx := q.rx.Pos.Sub(q.tx.Pos), q.tx.Pos.Sub(q.rx.Pos)
	if q.backHalf(dTx, dRx) {
		return dst
	}
	trans, blockedEntirely := e.occlusion(q.tc, 0, Segment{q.tx.Pos, q.rx.Pos}, -1, -1)
	if blockedEntirely {
		return dst
	}
	aod, aoa, ok := e.angles(q, dTx, dRx)
	if !ok {
		return dst
	}
	return append(dst, Path{
		AoD:    aod,
		AoA:    aoa,
		Dist:   d,
		Delay:  d / SpeedOfLight,
		LossDB: e.Band.PathLossDB(d) + trans,
		Via:    -1,
		Via2:   -1,
	})
}

// appendReflected appends the single bounce off wall wi, if it survives.
func (e *Environment) appendReflected(q *traceQuery, dst []Path, wi int) []Path {
	w := &e.Walls[wi]
	img := w.Seg.mirror(q.tx.Pos)
	// The reflected ray exists iff the image→RX segment crosses the wall.
	hit, ok := Segment{img, q.rx.Pos}.Intersects(w.Seg)
	if !ok {
		return dst
	}
	d := img.Dist(q.rx.Pos) // total path length TX→hit→RX
	if e.outOfRange(d) {
		return dst
	}
	dTx, dRx := hit.Sub(q.tx.Pos), hit.Sub(q.rx.Pos)
	if q.backHalf(dTx, dRx) {
		return dst
	}
	t1, b1 := e.occlusion(q.tc, 1+2*wi, Segment{q.tx.Pos, hit}, wi, -1)
	if b1 {
		return dst
	}
	t2, b2 := e.occlusion(q.tc, 2+2*wi, Segment{hit, q.rx.Pos}, wi, -1)
	if b2 {
		return dst
	}
	aod, aoa, ok := e.angles(q, dTx, dRx)
	if !ok {
		return dst
	}
	return append(dst, Path{
		AoD:     aod,
		AoA:     aoa,
		Dist:    d,
		Delay:   d / SpeedOfLight,
		LossDB:  e.Band.PathLossDB(d) + w.Mat.ReflLossDB + t1 + t2,
		PhasePi: true,
		Refl:    1,
		Via:     wi,
		Via2:    -1,
	})
}

// appendDoubleReflected appends TX → wall wi → wall wj → RX, if it
// survives, via the image-of-image method: TX's image across wi is
// mirrored across wj; the ray img2→RX must cross wj (at q2), and the ray
// img1→q2 must cross wi (at q1), with every leg checked for occlusion.
func (e *Environment) appendDoubleReflected(q *traceQuery, dst []Path, wi, wj int) []Path {
	first, second := &e.Walls[wi], &e.Walls[wj]
	img1 := first.Seg.mirror(q.tx.Pos)
	img2 := second.Seg.mirror(img1)
	q2, ok := Segment{img2, q.rx.Pos}.Intersects(second.Seg)
	if !ok {
		return dst
	}
	q1, ok := Segment{img1, q2}.Intersects(first.Seg)
	if !ok {
		return dst
	}
	d := img2.Dist(q.rx.Pos) // = |TX→q1| + |q1→q2| + |q2→RX|
	if e.outOfRange(d) {
		return dst
	}
	dTx, dRx := q1.Sub(q.tx.Pos), q2.Sub(q.rx.Pos)
	if q.backHalf(dTx, dRx) {
		return dst
	}
	t1, b1 := e.transmissionLoss(Segment{q.tx.Pos, q1}, wi, -1)
	if b1 {
		return dst
	}
	t2, b2 := e.transmissionLoss(Segment{q1, q2}, wi, wj)
	if b2 {
		return dst
	}
	t3, b3 := e.transmissionLoss(Segment{q2, q.rx.Pos}, wj, -1)
	if b3 {
		return dst
	}
	aod, aoa, ok := e.angles(q, dTx, dRx)
	if !ok {
		return dst
	}
	return append(dst, Path{
		AoD:    aod,
		AoA:    aoa,
		Dist:   d,
		Delay:  d / SpeedOfLight,
		LossDB: e.Band.PathLossDB(d) + first.Mat.ReflLossDB + second.Mat.ReflLossDB + t1 + t2 + t3,
		Refl:   2, // two flips cancel: PhasePi stays false
		Via:    wi,
		Via2:   wj,
	})
}

// transmissionLoss accumulates through-wall loss along a leg, skipping up
// to two wall indices (the reflecting wall for each endpoint). It reports
// blocked=true when accumulated transmission loss exceeds 50 dB, at which
// point the path is useless for a directional link. With a spatial index
// present it tests only the walls near the leg; the candidates arrive
// deduplicated and sorted ascending, so the accumulation order — and
// therefore the floating-point sum and the wall that trips the hard-block
// early exit — matches the brute-force walk bit for bit.
func (e *Environment) transmissionLoss(leg Segment, skip1, skip2 int) (lossDB float64, blocked bool) {
	const hardBlockDB = 50
	if ix := e.idx; ix != nil {
		sc := ix.getScratch()
		lossDB, blocked = e.transmissionLossOver(ix.legCandidates(sc, leg), leg, skip1, skip2)
		ix.putScratch(sc)
		return lossDB, blocked
	}
	for i, w := range e.Walls {
		if i == skip1 || i == skip2 {
			continue
		}
		pt, ok := leg.Intersects(w.Seg)
		if !ok {
			continue
		}
		// Ignore grazing contact at the leg endpoints (shared corners).
		if pt.Dist(leg.A) < 1e-9 || pt.Dist(leg.B) < 1e-9 {
			continue
		}
		lossDB += w.Mat.TransLossD
		if lossDB >= hardBlockDB {
			return lossDB, true
		}
	}
	return lossDB, false
}

// transmissionLossOver is the accumulation loop of transmissionLoss over an
// explicit ascending-sorted candidate list. Because only walls that actually
// intersect the leg (away from its endpoints) contribute, running it over
// any ascending superset of the intersecting walls — legCandidates' band,
// or a TraceCache's padded set — produces the same floating-point sum and
// trips the hard-block exit on the same wall, bit for bit.
func (e *Environment) transmissionLossOver(cands []int32, leg Segment, skip1, skip2 int) (lossDB float64, blocked bool) {
	const hardBlockDB = 50
	for _, wi := range cands {
		i := int(wi)
		if i == skip1 || i == skip2 {
			continue
		}
		w := e.Walls[i]
		pt, ok := leg.Intersects(w.Seg)
		if !ok {
			continue
		}
		// Ignore grazing contact at the leg endpoints (shared corners).
		if pt.Dist(leg.A) < 1e-9 || pt.Dist(leg.B) < 1e-9 {
			continue
		}
		lossDB += w.Mat.TransLossD
		if lossDB >= hardBlockDB {
			return lossDB, true
		}
	}
	return lossDB, false
}

// String implements fmt.Stringer for debugging.
func (p Path) String() string {
	kind := "LOS"
	if p.Refl > 0 {
		kind = fmt.Sprintf("refl(wall %d)", p.Via)
	}
	return fmt.Sprintf("%s AoD=%.1f° AoA=%.1f° d=%.2fm loss=%.1fdB",
		kind, p.AoD*180/math.Pi, p.AoA*180/math.Pi, p.Dist, p.LossDB)
}
