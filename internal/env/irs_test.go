package env

import (
	"math"
	"testing"
)

func TestIRSPathGeometry(t *testing.T) {
	e := NewEnvironment(Band28GHz())
	e.IRSs = []IRS{{Pos: Vec2{5, 5}, GainDB: 30}}
	tx := Pose{Pos: Vec2{0, 0}, Facing: 0}
	rx := Pose{Pos: Vec2{10, 0}, Facing: math.Pi}
	paths := e.Trace(tx, rx)
	if len(paths) != 2 {
		t.Fatalf("expected LOS + IRS path, got %d", len(paths))
	}
	var irs *Path
	for i := range paths {
		if paths[i].Via == -2 {
			irs = &paths[i]
		}
	}
	if irs == nil {
		t.Fatal("no IRS path")
	}
	d1, d2 := math.Hypot(5, 5), math.Hypot(5, 5)
	if math.Abs(irs.Dist-(d1+d2)) > 1e-9 {
		t.Fatalf("IRS path distance %g want %g", irs.Dist, d1+d2)
	}
	// Product-of-distances budget: FSPL(d1)+FSPL(d2)−gain.
	b := Band28GHz()
	want := b.PathLossDB(d1) + b.PathLossDB(d2) - 30
	if math.Abs(irs.LossDB-want) > 1e-9 {
		t.Fatalf("IRS loss %g want %g", irs.LossDB, want)
	}
	// AoD toward the surface: 45°.
	if math.Abs(irs.AoD-math.Pi/4) > 1e-9 {
		t.Fatalf("IRS AoD %g", irs.AoD)
	}
}

func TestIRSGainMakesWeakCornerViable(t *testing.T) {
	// Without gain, the re-radiation budget (product of distances) is far
	// worse than a specular wall at the same spot; with 30+ dB of surface
	// gain it becomes comparable.
	b := Band28GHz()
	tx := Pose{Pos: Vec2{0, 0}, Facing: 0}
	rx := Pose{Pos: Vec2{10, 0}, Facing: math.Pi}

	passive := NewEnvironment(b)
	passive.IRSs = []IRS{{Pos: Vec2{5, 5}, GainDB: 0}}
	active := NewEnvironment(b)
	active.IRSs = []IRS{{Pos: Vec2{5, 5}, GainDB: 70}}
	wall := NewEnvironment(b, Wall{Seg: Segment{Vec2{-10, 5}, Vec2{20, 5}}, Mat: Metal})

	lossOf := func(e *Environment, refl bool) float64 {
		for _, p := range e.Trace(tx, rx) {
			if (p.Refl > 0) == refl {
				return p.LossDB
			}
		}
		t.Fatal("path not found")
		return 0
	}
	p0 := lossOf(passive, true)
	p70 := lossOf(active, true)
	spec := lossOf(wall, true)
	if p0 < spec+20 {
		t.Fatalf("ungained IRS (%g dB) should be far weaker than a specular wall (%g dB)", p0, spec)
	}
	if math.Abs(p70-(p0-70)) > 1e-9 {
		t.Fatalf("IRS gain not applied: %g vs %g−70", p70, p0)
	}
	// Matching a specular wall over ~7 m legs takes roughly 70 dB of
	// surface gain (thousands of elements) — the classic IRS budget result.
	if math.Abs(p70-spec) > 5 {
		t.Fatalf("70 dB IRS (%g dB) should approach the specular wall (%g dB)", p70, spec)
	}
}

func TestIRSOcclusion(t *testing.T) {
	e := NewEnvironment(Band28GHz())
	e.IRSs = []IRS{{Pos: Vec2{5, 5}, GainDB: 30}}
	// A metal wall between TX and the surface kills the first leg.
	e.Walls = append(e.Walls, Wall{Seg: Segment{Vec2{2, 1}, Vec2{2, 4}}, Mat: Metal})
	for _, p := range e.Trace(Pose{Pos: Vec2{0, 0}}, Pose{Pos: Vec2{10, 0}, Facing: math.Pi}) {
		if p.Via == -2 {
			t.Fatalf("occluded IRS path survived: %+v", p)
		}
	}
}

func TestIRSIdentityDistinctFromWalls(t *testing.T) {
	e := NewEnvironment(Band28GHz(),
		Wall{Seg: Segment{Vec2{-10, 5}, Vec2{20, 5}}, Mat: Metal})
	e.IRSs = []IRS{{Pos: Vec2{4, -3}, GainDB: 30}, {Pos: Vec2{6, -4}, GainDB: 30}}
	paths := e.Trace(Pose{Pos: Vec2{0, 0}}, Pose{Pos: Vec2{10, 0}, Facing: math.Pi})
	ids := map[int]bool{}
	for _, p := range paths {
		if ids[p.ID()] {
			t.Fatalf("duplicate path ID %d", p.ID())
		}
		ids[p.ID()] = true
	}
	if len(paths) < 4 {
		t.Fatalf("expected LOS + wall + 2 IRS paths, got %d", len(paths))
	}
}
