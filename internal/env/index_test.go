package env

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// tracePair compares indexed and reference traces of the same (tx, rx) in
// the same environment and fails on any difference: the indexed tracer's
// contract is bit-identical path lists (losses, ordering, truncation), not
// merely "the same paths".
func tracePair(t *testing.T, e *Environment, tx, rx Pose, tag string) {
	t.Helper()
	if e.idx == nil {
		t.Fatalf("%s: scene has no index built", tag)
	}
	got := e.Trace(tx, rx)
	saved := e.idx
	e.idx = nil
	want := e.Trace(tx, rx)
	e.idx = saved
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: indexed trace diverges from reference\nindexed:   %v\nreference: %v",
			tag, got, want)
	}
}

// TestIndexedTraceMatchesReference property-tests the spatial-indexed
// tracer against the brute-force oracle on every scene constructor the
// package ships, across reflection orders, range limits and random
// terminal placements. The indexed tracer prunes candidate walls; this test
// is the proof the pruning is lossless.
func TestIndexedTraceMatchesReference(t *testing.T) {
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
			// Random-ish extent from the wall AABB for in-scene UE drops.
			minX, minY, maxX, maxY := sceneAABB(e)
			for _, order := range []int{1, 2} {
				for _, rangeM := range []float64{0, 30, 200} {
					e.MaxOrder = order
					e.MaxRangeM = rangeM
					e.BuildIndex()
					for trial := 0; trial < 8; trial++ {
						tx := poses[trial%len(poses)]
						rx := Pose{
							Pos: Vec2{
								minX + rng.Float64()*(maxX-minX),
								minY + rng.Float64()*(maxY-minY),
							},
							Facing: rng.Float64()*6.28 - 3.14,
						}
						tag := fmt.Sprintf("%s seed=%d order=%d range=%g trial=%d",
							sc.name, seed, order, rangeM, trial)
						tracePair(t, e, tx, rx, tag)
						// MaxPaths truncation must cut identically too.
						e.MaxPaths = 2
						tracePair(t, e, tx, rx, tag+" maxpaths")
						e.MaxPaths = 0
					}
				}
			}
		}
	}
}

// TestIndexedTraceOutOfBoundsTerminals puts terminals far outside the wall
// bounding box (the grid clamps queries to its edge cells): paths must
// still match the reference exactly.
func TestIndexedTraceOutOfBoundsTerminals(t *testing.T) {
	e, _ := MetroGrid(Band28GHz(), 3)
	e.MaxOrder = 2
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		tx := Pose{Pos: Vec2{-50 + rng.Float64()*250, -50 + rng.Float64()*250}, Facing: 1}
		rx := Pose{Pos: Vec2{-50 + rng.Float64()*250, -50 + rng.Float64()*250}, Facing: -2}
		tracePair(t, e, tx, rx, fmt.Sprintf("oob trial=%d", trial))
	}
}

func sceneAABB(e *Environment) (minX, minY, maxX, maxY float64) {
	minX, minY = 1e18, 1e18
	maxX, maxY = -1e18, -1e18
	for _, w := range e.Walls {
		for _, p := range [2]Vec2{w.Seg.A, w.Seg.B} {
			if p.X < minX {
				minX = p.X
			}
			if p.X > maxX {
				maxX = p.X
			}
			if p.Y < minY {
				minY = p.Y
			}
			if p.Y > maxY {
				maxY = p.Y
			}
		}
	}
	return
}

// benchTraceScene builds a MetroGrid of the given size and a street-level
// link whose trace exercises occlusion against the whole city.
func benchTraceScene(blocks int, indexed bool) (*Environment, Pose, Pose) {
	e, poses := MetroGrid(Band28GHz(), blocks)
	e.MaxOrder = 2
	if !indexed {
		e.idx = nil
	}
	tx := poses[1]
	rx := Pose{Pos: tx.Pos.Add(Vec2{21, 0}), Facing: 3.0}
	return e, tx, rx
}

// BenchmarkTraceIndexed measures the spatial-indexed ray tracer on the
// 1024-wall metro grid (16×16 Manhattan blocks): one street-level trace per
// iteration, occlusion tested against the whole city through the uniform
// grid. Compare against the walls=1024 row of BenchmarkTraceReference.
func BenchmarkTraceIndexed(b *testing.B) {
	e, tx, rx := benchTraceScene(16, true)
	buf := make([]Path, 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = e.TraceAppend(buf[:0], tx, rx)
	}
}

// BenchmarkTraceReference is the brute-force oracle on growing metro
// scenes: its per-trace cost grows linearly in total walls, where the
// indexed tracer's stays flat.
func BenchmarkTraceReference(b *testing.B) {
	for _, blocks := range []int{2, 4, 8, 16} {
		e, tx, rx := benchTraceScene(blocks, false)
		b.Run(fmt.Sprintf("walls=%d", len(e.Walls)), func(b *testing.B) {
			buf := make([]Path, 0, 16)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = e.TraceAppend(buf[:0], tx, rx)
			}
		})
	}
}

// BenchmarkRayTrace is one brute-force trace of the conference room: the
// gNB to a UE at the room's far side.
func BenchmarkRayTrace(b *testing.B) {
	e := ConferenceRoom(Band28GHz())
	gnb := GNBPose(true)
	ue := Pose{Pos: Vec2{X: 6, Y: 2.6}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = e.Trace(gnb, ue)
	}
}
