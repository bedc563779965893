package env

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// traceCachePair compares a cached trace against a fresh TraceAppend of the
// same (tx, rx) and fails on any difference: the TraceCache contract is
// bit-identical path lists (losses, ordering, truncation), never "close
// enough". TraceAppend itself is pinned against the brute-force oracle by
// TestIndexedTraceMatchesReference, so equality here closes the chain back
// to the reference tracer.
func traceCachePair(t *testing.T, e *Environment, tc *TraceCache, tx, rx Pose, tag string) {
	t.Helper()
	got := e.TraceAppendCached(tc, nil, tx, rx)
	want := e.TraceAppend(nil, tx, rx)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: cached trace diverges from TraceAppend\ncached: %v\nfresh:  %v",
			tag, got, want)
	}
}

// TestTraceCacheMatchesTraceAppend property-tests the enumerate/solve split
// across the same scene families as TestIndexedTraceMatchesReference, with
// the UE *moving* between queries so the cache crosses its invalidation
// boundaries: most steps are small (well inside the pad, pure reuse), with
// periodic multi-cell hops (disk rectangle change) and scene-scale
// teleports (every leg set stale at once).
func TestTraceCacheMatchesTraceAppend(t *testing.T) {
	type scene struct {
		name  string
		build func(rng *rand.Rand) (*Environment, []Pose)
	}
	scenes := []scene{
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
	for _, sc := range scenes {
		for seed := int64(0); seed < 10; seed++ {
			rng := rand.New(rand.NewSource(seed))
			e, poses := sc.build(rng)
			minX, minY, maxX, maxY := sceneAABB(e)
			for _, order := range []int{1, 2} {
				for _, rangeM := range []float64{30, 200} {
					e.MaxOrder = order
					e.MaxRangeM = rangeM
					e.BuildIndex()
					tx := poses[int(seed)%len(poses)]
					rx := Pose{
						Pos: Vec2{
							minX + rng.Float64()*(maxX-minX),
							minY + rng.Float64()*(maxY-minY),
						},
						Facing: rng.Float64()*6.28 - 3.14,
					}
					// One cache for the whole walk — reuse across steps is
					// the thing under test.
					tc := &TraceCache{}
					cell := e.idx.cellSize
					for step := 0; step < 30; step++ {
						var hop float64
						switch {
						case step%13 == 12: // teleport across the scene
							rx.Pos = Vec2{
								minX + rng.Float64()*(maxX-minX),
								minY + rng.Float64()*(maxY-minY),
							}
						case step%7 == 6: // multi-cell hop: disk rect moves
							hop = 3 * cell
						default: // sub-pad drift: the pure-reuse regime
							hop = 0.15 * cell
						}
						if hop > 0 {
							rx.Pos.X += (rng.Float64()*2 - 1) * hop
							rx.Pos.Y += (rng.Float64()*2 - 1) * hop
						}
						rx.Facing = rng.Float64()*6.28 - 3.14
						tag := fmt.Sprintf("%s seed=%d order=%d range=%g step=%d",
							sc.name, seed, order, rangeM, step)
						traceCachePair(t, e, tc, tx, rx, tag)
						// MaxPaths truncation must cut identically too.
						e.MaxPaths = 2
						traceCachePair(t, e, tc, tx, rx, tag+" maxpaths")
						e.MaxPaths = 0
					}
				}
			}
		}
	}
}

// TestTraceCacheReuses pins that the cache actually skips re-enumeration in
// the quiescent regime: oscillating a UE between two sub-pad positions
// must stop growing Rebuilds after the first visit.
func TestTraceCacheReuses(t *testing.T) {
	e, poses := MultiCellHall(Band28GHz(), 2)
	e.MaxRangeM = 80
	e.BuildIndex()
	tx := poses[0]
	a := Pose{Pos: Vec2{6, 5}, Facing: 1}
	b := Pose{Pos: Vec2{6 + 0.1*e.idx.cellSize, 5}, Facing: 1}
	tc := &TraceCache{}
	e.TraceAppendCached(tc, nil, tx, a)
	e.TraceAppendCached(tc, nil, tx, b)
	warm := tc.Rebuilds
	if warm == 0 {
		t.Fatal("no enumeration happened at all")
	}
	for i := 0; i < 20; i++ {
		rx := a
		if i%2 == 1 {
			rx = b
		}
		e.TraceAppendCached(tc, nil, tx, rx)
	}
	if tc.Rebuilds != warm {
		t.Fatalf("quiescent oscillation re-enumerated: rebuilds %d -> %d", warm, tc.Rebuilds)
	}
}

// TestTraceCacheBlockerInvalidation sweeps a metal blocker wall through a
// room (mutating Walls and rebuilding the index each move, the repo's
// convention for geometry changes) while the same TraceCache serves a
// drifting UE: the index-generation check must discard stale enumerations
// the moment the blocker enters — or leaves — any cached candidate band.
func TestTraceCacheBlockerInvalidation(t *testing.T) {
	base := ConferenceRoom(Band60GHz())
	nFixed := len(base.Walls)
	base.MaxRangeM = 40
	tx := GNBPose(true)
	rng := rand.New(rand.NewSource(3))
	tc := &TraceCache{}
	rx := Pose{Pos: Vec2{7.5, 8.5}, Facing: -1.2}
	for step := 0; step < 25; step++ {
		// The blocker crosses the room left to right, cutting the tx–rx
		// corridor around the middle steps.
		x := 0.5 + float64(step)*0.35
		blocker := Wall{Seg: Segment{Vec2{x, 2}, Vec2{x, 7}}, Mat: Metal}
		base.Walls = append(base.Walls[:nFixed], blocker)
		base.BuildIndex()
		// UE drifts a little every step; the blocker move is what forces
		// the full invalidation.
		rx.Pos.X += (rng.Float64()*2 - 1) * 0.05
		rx.Pos.Y += (rng.Float64()*2 - 1) * 0.05
		traceCachePair(t, base, tc, tx, rx, fmt.Sprintf("blocker step=%d", step))
	}
}

// TestTraceCacheFallbacks pins the fall-back contract: nil cache, missing
// index, or unbounded range must all produce TraceAppend verbatim.
func TestTraceCacheFallbacks(t *testing.T) {
	e := ConferenceRoom(Band60GHz())
	tx, rx := GNBPose(true), Pose{Pos: Vec2{5, 5}, Facing: 0.3}
	want := e.TraceAppend(nil, tx, rx)
	if got := e.TraceAppendCached(nil, nil, tx, rx); !reflect.DeepEqual(got, want) {
		t.Fatalf("nil cache: %v != %v", got, want)
	}
	tc := &TraceCache{}
	if got := e.TraceAppendCached(tc, nil, tx, rx); !reflect.DeepEqual(got, want) {
		t.Fatalf("no index: %v != %v", got, want)
	}
	e.BuildIndex() // index present but MaxRangeM == 0: still the fallback
	want = e.TraceAppend(nil, tx, rx)
	if got := e.TraceAppendCached(tc, nil, tx, rx); !reflect.DeepEqual(got, want) {
		t.Fatalf("unbounded range: %v != %v", got, want)
	}
}
