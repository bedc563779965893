package env

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// referenceTrace is the brute-force tracer with the admission order that
// runs the occlusion walks first and the front-half rule last, on every
// wall of the scene with no spatial index. The production tracer tests the
// front half first; both orders apply the same pure tests, so they must
// return the same paths bit for bit.
func referenceTrace(e *Environment, tx, rx Pose) []Path {
	var paths []Path
	if math.IsNaN(tx.Facing) || math.IsInf(tx.Facing, 0) || math.IsNaN(rx.Facing) || math.IsInf(rx.Facing, 0) {
		return paths
	}
	add := func(p Path, ok bool) {
		if ok {
			paths = append(paths, p)
		}
	}
	add(refLOS(e, tx, rx))
	for wi := range e.Walls {
		add(refReflected(e, tx, rx, wi))
	}
	for i := range e.IRSs {
		add(refIRS(e, tx, rx, i))
	}
	if e.MaxOrder >= 2 {
		for wi := range e.Walls {
			for wj := range e.Walls {
				if wi != wj {
					add(refDoubleReflected(e, tx, rx, wi, wj))
				}
			}
		}
	}
	sort.SliceStable(paths, func(i, j int) bool { return pathLess(paths[i], paths[j]) })
	if e.MaxPaths > 0 && len(paths) > e.MaxPaths {
		paths = paths[:e.MaxPaths]
	}
	return paths
}

// refOcclusion is the brute-force transmission-loss walk over every wall.
func refOcclusion(e *Environment, leg Segment, skip1, skip2 int) (lossDB float64, blocked bool) {
	for i, w := range e.Walls {
		if i == skip1 || i == skip2 {
			continue
		}
		pt, ok := leg.Intersects(w.Seg)
		if !ok || pt.Dist(leg.A) < 1e-9 || pt.Dist(leg.B) < 1e-9 {
			continue
		}
		lossDB += w.Mat.TransLossD
		if lossDB >= 50 {
			return lossDB, true
		}
	}
	return lossDB, false
}

// refFrontHalf is the exact front-half rule on a fully built path.
func refFrontHalf(e *Environment, p Path) bool {
	return !e.FrontHalfOnly || (math.Abs(p.AoD) <= math.Pi/2 && math.Abs(p.AoA) <= math.Pi/2)
}

func refOutOfRange(e *Environment, d float64) bool {
	return d < 1e-9 || (e.MaxRangeM > 0 && d > e.MaxRangeM)
}

func refLOS(e *Environment, tx, rx Pose) (Path, bool) {
	d := tx.Pos.Dist(rx.Pos)
	if refOutOfRange(e, d) {
		return Path{}, false
	}
	trans, blocked := refOcclusion(e, Segment{tx.Pos, rx.Pos}, -1, -1)
	if blocked {
		return Path{}, false
	}
	p := Path{
		AoD:    relAngle(rx.Pos.Sub(tx.Pos), tx.Facing),
		AoA:    relAngle(tx.Pos.Sub(rx.Pos), rx.Facing),
		Dist:   d,
		Delay:  d / SpeedOfLight,
		LossDB: e.Band.PathLossDB(d) + trans,
		Via:    -1,
		Via2:   -1,
	}
	return p, refFrontHalf(e, p)
}

func refReflected(e *Environment, tx, rx Pose, wi int) (Path, bool) {
	w := e.Walls[wi]
	img := w.Seg.mirror(tx.Pos)
	hit, ok := Segment{img, rx.Pos}.Intersects(w.Seg)
	if !ok {
		return Path{}, false
	}
	d := img.Dist(rx.Pos)
	if refOutOfRange(e, d) {
		return Path{}, false
	}
	t1, b1 := refOcclusion(e, Segment{tx.Pos, hit}, wi, -1)
	if b1 {
		return Path{}, false
	}
	t2, b2 := refOcclusion(e, Segment{hit, rx.Pos}, wi, -1)
	if b2 {
		return Path{}, false
	}
	p := Path{
		AoD:     relAngle(hit.Sub(tx.Pos), tx.Facing),
		AoA:     relAngle(hit.Sub(rx.Pos), rx.Facing),
		Dist:    d,
		Delay:   d / SpeedOfLight,
		LossDB:  e.Band.PathLossDB(d) + w.Mat.ReflLossDB + t1 + t2,
		PhasePi: true,
		Refl:    1,
		Via:     wi,
		Via2:    -1,
	}
	return p, refFrontHalf(e, p)
}

func refDoubleReflected(e *Environment, tx, rx Pose, wi, wj int) (Path, bool) {
	first, second := e.Walls[wi], e.Walls[wj]
	img1 := first.Seg.mirror(tx.Pos)
	img2 := second.Seg.mirror(img1)
	q2, ok := Segment{img2, rx.Pos}.Intersects(second.Seg)
	if !ok {
		return Path{}, false
	}
	q1, ok := Segment{img1, q2}.Intersects(first.Seg)
	if !ok {
		return Path{}, false
	}
	d := img2.Dist(rx.Pos)
	if refOutOfRange(e, d) {
		return Path{}, false
	}
	t1, b1 := refOcclusion(e, Segment{tx.Pos, q1}, wi, -1)
	if b1 {
		return Path{}, false
	}
	t2, b2 := refOcclusion(e, Segment{q1, q2}, wi, wj)
	if b2 {
		return Path{}, false
	}
	t3, b3 := refOcclusion(e, Segment{q2, rx.Pos}, wj, -1)
	if b3 {
		return Path{}, false
	}
	p := Path{
		AoD:    relAngle(q1.Sub(tx.Pos), tx.Facing),
		AoA:    relAngle(q2.Sub(rx.Pos), rx.Facing),
		Dist:   d,
		Delay:  d / SpeedOfLight,
		LossDB: e.Band.PathLossDB(d) + first.Mat.ReflLossDB + second.Mat.ReflLossDB + t1 + t2 + t3,
		Refl:   2,
		Via:    wi,
		Via2:   wj,
	}
	return p, refFrontHalf(e, p)
}

func refIRS(e *Environment, tx, rx Pose, i int) (Path, bool) {
	s := e.IRSs[i]
	d1 := tx.Pos.Dist(s.Pos)
	d2 := s.Pos.Dist(rx.Pos)
	if d1 < 1e-9 || d2 < 1e-9 || (e.MaxRangeM > 0 && d1+d2 > e.MaxRangeM) {
		return Path{}, false
	}
	t1, b1 := refOcclusion(e, Segment{tx.Pos, s.Pos}, -1, -1)
	if b1 {
		return Path{}, false
	}
	t2, b2 := refOcclusion(e, Segment{s.Pos, rx.Pos}, -1, -1)
	if b2 {
		return Path{}, false
	}
	p := Path{
		AoD:    relAngle(s.Pos.Sub(tx.Pos), tx.Facing),
		AoA:    relAngle(s.Pos.Sub(rx.Pos), rx.Facing),
		Dist:   d1 + d2,
		Delay:  (d1 + d2) / SpeedOfLight,
		LossDB: e.Band.PathLossDB(d1) + e.Band.PathLossDB(d2) - s.GainDB + t1 + t2,
		Refl:   1,
		Via:    -2 - i,
		Via2:   -1,
	}
	return p, refFrontHalf(e, p)
}

// admissionScenes are the scene families the tracer ships, each with its
// gNB poses.
var admissionScenes = []struct {
	name  string
	build func(rng *rand.Rand) (*Environment, []Pose)
}{
	{"conference", func(*rand.Rand) (*Environment, []Pose) {
		return ConferenceRoom(Band60GHz()), []Pose{GNBPose(true)}
	}},
	{"street", func(*rand.Rand) (*Environment, []Pose) {
		return OutdoorStreet(Band28GHz()), []Pose{GNBPose(false)}
	}},
	{"randIndoor", func(rng *rand.Rand) (*Environment, []Pose) {
		e, p := RandomIndoor(rng, Band60GHz())
		return e, []Pose{p}
	}},
	{"randOutdoor", func(rng *rand.Rand) (*Environment, []Pose) {
		e, p := RandomOutdoor(rng, Band28GHz())
		return e, []Pose{p}
	}},
	{"hall", func(*rand.Rand) (*Environment, []Pose) {
		return MultiCellHall(Band28GHz(), 4)
	}},
	{"multiStreet", func(*rand.Rand) (*Environment, []Pose) {
		return MultiCellStreet(Band28GHz(), 4)
	}},
	{"metro", func(*rand.Rand) (*Environment, []Pose) {
		return MetroGrid(Band28GHz(), 4)
	}},
	{"irs", func(*rand.Rand) (*Environment, []Pose) {
		e := ConferenceRoom(Band60GHz())
		e.IRSs = []IRS{{Pos: Vec2{6.5, 9.5}, GainDB: 20}, {Pos: Vec2{0.5, 0.5}, GainDB: 15}}
		return e, []Pose{GNBPose(true)}
	}},
}

// TestTraceAdmissionMatchesReference pins the front-half-first admission
// order against referenceTrace: TraceAppend (indexed and not) and
// TraceAppendCached along a walking UE must equal it with reflect.DeepEqual
// across every scene family, seeds, FrontHalfOnly on and off, reflection
// orders 1 and 2, range budgets and MaxPaths truncation.
func TestTraceAdmissionMatchesReference(t *testing.T) {
	for _, sc := range admissionScenes {
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			e, poses := sc.build(rng)
			minX, minY, maxX, maxY := sceneAABB(e)
			randPos := func() Vec2 {
				return Vec2{minX + rng.Float64()*(maxX-minX), minY + rng.Float64()*(maxY-minY)}
			}
			for _, front := range []bool{true, false} {
				for _, order := range []int{1, 2} {
					for _, rangeM := range []float64{0, 30, 200} {
						e.FrontHalfOnly, e.MaxOrder, e.MaxRangeM = front, order, rangeM
						e.BuildIndex()
						tc := &TraceCache{}
						tx := poses[int(seed)%len(poses)]
						rx := Pose{Pos: randPos()}
						for step := 0; step < 8; step++ {
							if step%4 == 3 {
								rx.Pos = randPos()
							} else {
								rx.Pos.X += (rng.Float64()*2 - 1) * 0.3
								rx.Pos.Y += (rng.Float64()*2 - 1) * 0.3
							}
							rx.Facing = rng.Float64()*6.28 - 3.14
							for _, maxPaths := range []int{0, 2} {
								e.MaxPaths = maxPaths
								tag := fmt.Sprintf("%s seed=%d front=%v order=%d range=%g step=%d maxpaths=%d",
									sc.name, seed, front, order, rangeM, step, maxPaths)
								want := referenceTrace(e, tx, rx)
								if got := e.TraceAppend(nil, tx, rx); !reflect.DeepEqual(got, want) {
									t.Fatalf("%s: TraceAppend diverges\ngot:  %v\nwant: %v", tag, got, want)
								}
								if got := e.TraceAppendCached(tc, nil, tx, rx); !reflect.DeepEqual(got, want) {
									t.Fatalf("%s: TraceAppendCached diverges\ngot:  %v\nwant: %v", tag, got, want)
								}
								saved := e.idx
								e.idx = nil
								got := e.TraceAppend(nil, tx, rx)
								e.idx = saved
								if !reflect.DeepEqual(got, want) {
									t.Fatalf("%s: brute-force TraceAppend diverges\ngot:  %v\nwant: %v", tag, got, want)
								}
							}
							e.MaxPaths = 0
						}
					}
				}
			}
		}
	}
}

// TestTraceAdmissionSkipsBackHalfLegs pins the mechanism: a reflection that
// arrives from behind the UE is rejected before its occlusion walks, so its
// leg caches are never built, while a reflection in front of the UE builds
// both of its legs.
func TestTraceAdmissionSkipsBackHalfLegs(t *testing.T) {
	const front, back = 0, 1
	e := NewEnvironment(Band28GHz(),
		Wall{Seg: Segment{Vec2{-2, 3}, Vec2{14, 3}}, Mat: Metal},  // above the link
		Wall{Seg: Segment{Vec2{12, -2}, Vec2{12, 2}}, Mat: Metal}, // behind the UE
	)
	e.MaxRangeM = 60
	e.BuildIndex()
	tx := Pose{Pos: Vec2{0, 0}, Facing: 0}
	rx := Pose{Pos: Vec2{10, 0}, Facing: math.Pi} // faces the gNB, back to the wall
	tc := &TraceCache{}
	paths := e.TraceAppendCached(tc, nil, tx, rx)
	if len(paths) != 2 || paths[0].Via != -1 || paths[1].Via != front {
		t.Fatalf("want LOS and the front reflection, got %v", paths)
	}
	for _, k := range []int{1 + 2*front, 2 + 2*front} {
		if tc.legs[k] == nil {
			t.Fatalf("front reflection leg %d was never walked", k)
		}
	}
	for _, k := range []int{1 + 2*back, 2 + 2*back} {
		if tc.legs[k] != nil {
			t.Fatalf("back-half reflection built leg cache %d", k)
		}
	}
	// The back-wall bounce is a real path: with the rule off it appears.
	e.FrontHalfOnly = false
	found := false
	for _, p := range e.TraceAppendCached(tc, nil, tx, rx) {
		found = found || p.Via == back
	}
	if !found {
		t.Fatal("the back-wall reflection does not exist geometrically; the pin tests nothing")
	}
}

// TestBehindImpliesExactReject property-tests the cheap front-half test's
// margin: whenever behind rejects a direction, the exact relAngle test
// rejects it too, for facings up to maxCheapFacing and directions within
// nanoradians of the ±π/2 boundary at every scale. It also pins that the
// cheap test fires on a clearly-behind direction.
func TestBehindImpliesExactReject(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	fired := 0
	for i := 0; i < 200000; i++ {
		facing := (rng.Float64()*2 - 1) * maxCheapFacing
		if i%3 == 0 {
			facing = (rng.Float64()*2 - 1) * 4
		}
		off := math.Pi / 2
		if rng.Intn(2) == 0 {
			off = -off
		}
		off += (rng.Float64()*2 - 1) * math.Pow(10, -6-6*rng.Float64())
		if i%5 == 0 {
			off = (rng.Float64()*2 - 1) * math.Pi
		}
		scale := math.Pow(10, -6+12*rng.Float64())
		s, c := math.Sincos(facing + off)
		v := Vec2{scale * c, scale * s}
		if behind(v, broadside(facing)) {
			fired++
			if a := relAngle(v, facing); math.Abs(a) <= math.Pi/2 {
				t.Fatalf("behind rejected v=%v at facing %.17g, exact angle %.17g is front", v, facing, a)
			}
		}
	}
	if fired == 0 {
		t.Fatal("the cheap test never fired")
	}
	if !behind(Vec2{-1, 0}, broadside(0)) || behind(Vec2{-1, 0}, broadside(2*maxCheapFacing)) {
		t.Fatal("behind must fire on a clearly-behind direction and stay off beyond maxCheapFacing")
	}
}

// FuzzTraceMatchesReference fuzzes the tracer on degenerate geometry: the
// conference room plus one fuzzed wall, fuzzed terminals and facings, and a
// mode byte selecting the reflection order (bit 0), FrontHalfOnly off
// (bit 1) and a 40 m range budget with the cached tracer (bit 2). Every
// tracer form must equal referenceTrace, never panic, and return only
// finite angles, distances, delays and losses. Inputs outside a 10 km
// scene are out of the tracer's domain; any facing is in it, and one that
// is not finite traces no path. The seed corpus under testdata/fuzz holds
// the degenerate cases by name: the UE at the gNB, the UE on a wall, a
// zero-length wall, the UE on the gNB's broadside plane (AoD = π/2),
// facings along walls, a back-wall bounce with the front-half rule off,
// and facings of 1e6 and 1e17 rad, +Inf and NaN.
func FuzzTraceMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, txX, txY, txF, rxX, rxY, rxF, ax, ay, bx, by float64, mode uint8) {
		for _, v := range []float64{txX, txY, rxX, rxY, ax, ay, bx, by} {
			if !(math.Abs(v) <= 1e4) {
				t.Skip()
			}
		}
		e := ConferenceRoom(Band60GHz())
		e.Walls = append(e.Walls, Wall{Seg: Segment{Vec2{ax, ay}, Vec2{bx, by}}, Mat: Metal})
		e.MaxOrder = 1 + int(mode&1)
		e.FrontHalfOnly = mode&2 == 0
		if mode&4 != 0 {
			e.MaxRangeM = 40
		}
		tx, rx := Pose{Vec2{txX, txY}, txF}, Pose{Vec2{rxX, rxY}, rxF}
		want := referenceTrace(e, tx, rx)
		for _, p := range want {
			for _, v := range []float64{p.AoD, p.AoA, p.Dist, p.Delay, p.LossDB} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("non-finite path %+v", p)
				}
			}
		}
		check := func(form string, got []Path) {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s diverges\ngot:  %v\nwant: %v", form, got, want)
			}
		}
		check("brute-force TraceAppend", e.TraceAppend(nil, tx, rx))
		e.BuildIndex()
		check("indexed TraceAppend", e.TraceAppend(nil, tx, rx))
		tc := &TraceCache{}
		check("TraceAppendCached", e.TraceAppendCached(tc, nil, tx, rx))
		check("TraceAppendCached (warm)", e.TraceAppendCached(tc, nil, tx, rx))
	})
}
