package env

import (
	"math"
	"math/rand"
)

// ConferenceRoom builds the paper's indoor scenario: a 7 m × 10 m room with
// reflective glass walls, a whiteboard (metal-backed) on one side, and
// wooden furniture along another. The gNB sits near one short wall facing
// into the room.
func ConferenceRoom(band Band) *Environment {
	const w, l = 7.0, 10.0
	walls := []Wall{
		{Seg: Segment{Vec2{0, 0}, Vec2{l, 0}}, Mat: Glass},   // south glass wall
		{Seg: Segment{Vec2{l, 0}, Vec2{l, w}}, Mat: Drywall}, // east wall
		{Seg: Segment{Vec2{l, w}, Vec2{0, w}}, Mat: Glass},   // north glass wall
		{Seg: Segment{Vec2{0, w}, Vec2{0, 0}}, Mat: Drywall}, // west wall
		// Metal-backed whiteboard mounted just in front of the north wall:
		// a strong reflector that also shadows the glass behind it, so the
		// two reflections never coincide in delay.
		{Seg: Segment{Vec2{2.5, w - 0.1}, Vec2{5.5, w - 0.1}}, Mat: Metal},
		{Seg: Segment{Vec2{7.5, 0.4}, Vec2{9.5, 0.4}}, Mat: Wood}, // furniture row
	}
	return NewEnvironment(band, walls...)
}

// OutdoorStreet builds the paper's outdoor scenario: an open link of up to
// 80 m running alongside a large building with glass walls, plus a metal
// fixture (parked vehicles / lamp posts) on the opposite side.
func OutdoorStreet(band Band) *Environment {
	walls := []Wall{
		{Seg: Segment{Vec2{-5, 12}, Vec2{90, 12}}, Mat: Glass},      // building facade
		{Seg: Segment{Vec2{20, -8}, Vec2{45, -8}}, Mat: Metal},      // metal fixture
		{Seg: Segment{Vec2{60, -10}, Vec2{85, -10}}, Mat: Concrete}, // low concrete wall
	}
	return NewEnvironment(band, walls...)
}

// GNBPose returns the canonical gNB placement for the built-in scenes:
// the conference room gNB sits at (0.5, 3.5) facing +x; the street gNB at
// the origin facing +x.
func GNBPose(indoor bool) Pose {
	if indoor {
		return Pose{Pos: Vec2{0.5, 3.5}, Facing: 0}
	}
	return Pose{Pos: Vec2{0, 0}, Facing: 0}
}

// RandomIndoor generates a randomized rectangular room (substituting for
// the paper's many indoor measurement locations): room dimensions 5–12 m,
// random wall materials, and one or two interior reflectors. The gNB is
// placed near a wall; rng drives all choices.
func RandomIndoor(rng *rand.Rand, band Band) (*Environment, Pose) {
	l := 5 + 7*rng.Float64()
	w := 4 + 5*rng.Float64()
	// Office interiors are dominated by strong specular reflectors (glass
	// walls, whiteboards, metal cabinets) — the paper's indoor median
	// relative attenuation is only 7.2 dB.
	mats := []Material{Glass, Glass, Metal, Concrete, Drywall}
	pick := func() Material { return mats[rng.Intn(len(mats))] }
	walls := []Wall{
		{Seg: Segment{Vec2{0, 0}, Vec2{l, 0}}, Mat: pick()},
		{Seg: Segment{Vec2{l, 0}, Vec2{l, w}}, Mat: pick()},
		{Seg: Segment{Vec2{l, w}, Vec2{0, w}}, Mat: pick()},
		{Seg: Segment{Vec2{0, w}, Vec2{0, 0}}, Mat: pick()},
	}
	for extra := 0; extra < rng.Intn(3); extra++ {
		x := 1 + (l-2)*rng.Float64()
		y := 0.3 + (w-0.6)*rng.Float64()
		span := 1 + 2*rng.Float64()
		walls = append(walls, Wall{
			Seg: Segment{Vec2{x, y}, Vec2{math.Min(x+span, l-0.2), y}},
			Mat: pick(),
		})
	}
	gnb := Pose{Pos: Vec2{0.4, w / 2}, Facing: 0}
	return NewEnvironment(band, walls...), gnb
}

// RandomOutdoor generates a randomized street-canyon scenario: link length
// 10–80 m with one or two building facades at random offsets and materials.
func RandomOutdoor(rng *rand.Rand, band Band) (*Environment, Pose) {
	span := 100.0
	mats := []Material{Glass, Concrete, Metal}
	pick := func() Material { return mats[rng.Intn(len(mats))] }
	off1 := 8 + 12*rng.Float64()
	walls := []Wall{
		{Seg: Segment{Vec2{-5, off1}, Vec2{span, off1}}, Mat: pick()},
	}
	if rng.Float64() < 0.7 {
		off2 := -(6 + 10*rng.Float64())
		a := 10 + 30*rng.Float64()
		b := a + 20 + 30*rng.Float64()
		walls = append(walls, Wall{Seg: Segment{Vec2{a, off2}, Vec2{b, off2}}, Mat: pick()})
	}
	gnb := Pose{Pos: Vec2{0, 0}, Facing: 0}
	return NewEnvironment(band, walls...), gnb
}

// FacingFrom returns the facing angle for an array at pos pointing its
// broadside at target.
func FacingFrom(pos, target Vec2) float64 {
	return target.Sub(pos).Angle()
}

// HallLengthM and HallWidthM are the MultiCellHall floor extent: the hall
// spans x ∈ [0, HallLengthM] and y ∈ [0, HallWidthM], with its walls on
// the boundary.
const HallLengthM, HallWidthM = 20.0, 12.0

// MultiCellHall builds the multi-cell indoor deployment scene: a 20 m × 12 m
// exhibition-hall room with glass long walls and a couple of interior
// reflectors, and `cells` gNBs mounted alternately on the south and north
// walls, evenly spread along the hall's length, each facing the hall centre.
// Every gNB sees most of the floor directly, and any interior point is
// within ≈12 m of at least two gNBs once cells ≥ 2 — the geometry a
// cooperating cluster needs for make-before-break handover. Interior
// reflectors are deliberately low-transmission-loss materials (glass, wood)
// so no floor position is in a dead shadow of every cell. Deterministic:
// no randomness, so every caller with the same (band, cells) gets an
// identical scene. Panics if cells < 1.
func MultiCellHall(band Band, cells int) (*Environment, []Pose) {
	if cells < 1 {
		panic("env: MultiCellHall cells < 1")
	}
	const l, w = HallLengthM, HallWidthM
	walls := []Wall{
		{Seg: Segment{Vec2{0, 0}, Vec2{l, 0}}, Mat: Glass},      // south glass wall
		{Seg: Segment{Vec2{l, 0}, Vec2{l, w}}, Mat: Concrete},   // east wall
		{Seg: Segment{Vec2{l, w}, Vec2{0, w}}, Mat: Glass},      // north glass wall
		{Seg: Segment{Vec2{0, w}, Vec2{0, 0}}, Mat: Drywall},    // west wall
		{Seg: Segment{Vec2{4, 7.8}, Vec2{9, 7.8}}, Mat: Glass},  // glass partition
		{Seg: Segment{Vec2{12, 4.2}, Vec2{16, 4.2}}, Mat: Wood}, // wooden display row
	}
	e := NewEnvironment(band, walls...)
	center := Vec2{l / 2, w / 2}
	poses := make([]Pose, cells)
	for i := range poses {
		x := l * (float64(i) + 0.5) / float64(cells)
		y := 0.4
		if i%2 == 1 {
			y = w - 0.4
		}
		p := Vec2{x, y}
		poses[i] = Pose{Pos: p, Facing: FacingFrom(p, center)}
	}
	return e, poses
}

// HallUEPositions returns n deterministic UE drop positions inside the
// MultiCellHall floor: a near-square lattice with a 2 m margin from every
// wall, filled row-major. The lattice pitch shrinks as n grows, so any UE
// count fits; positions are a pure function of (i, n), which is what keeps
// multi-worker cluster runs byte-identical.
func HallUEPositions(n int) []Vec2 {
	if n < 1 {
		return nil
	}
	const l, w, margin = HallLengthM, HallWidthM, 2.0
	cols := 1
	for cols*cols < n {
		cols++
	}
	rows := (n + cols - 1) / cols
	pos := make([]Vec2, n)
	for i := range pos {
		r, c := i/cols, i%cols
		fx, fy := 0.5, 0.5
		if cols > 1 {
			fx = float64(c) / float64(cols-1)
		}
		if rows > 1 {
			fy = float64(r) / float64(rows-1)
		}
		pos[i] = Vec2{margin + (l-2*margin)*fx, margin + (w-2*margin)*fy}
	}
	return pos
}

// MultiCellStreet builds the multi-cell outdoor deployment scene: the
// OutdoorStreet canyon with `cells` gNBs lamppost-mounted along the south
// kerb every span/cells metres, each with its panel broadside facing
// across the street (+y), so consecutive cells' coverage areas overlap by
// roughly half a cell radius. Deterministic. Panics if cells < 1.
func MultiCellStreet(band Band, cells int) (*Environment, []Pose) {
	if cells < 1 {
		panic("env: MultiCellStreet cells < 1")
	}
	e := OutdoorStreet(band)
	const span = 90.0
	poses := make([]Pose, cells)
	for i := range poses {
		x := span * (float64(i) + 0.5) / float64(cells)
		p := Vec2{x, 0}
		poses[i] = Pose{Pos: p, Facing: FacingFrom(p, Vec2{x, 12})}
	}
	return e, poses
}

// MetroGrid builds the city-scale Manhattan deployment scene: a blocks ×
// blocks grid of square concrete/glass buildings separated by street
// canyons, with a gNB lamppost-mounted at every street intersection facing
// down a street. The scene is what the metro layer shards across cells:
// blocks=8 already means 256 walls, which is where the spatial index earns
// its keep — the constructor therefore builds the index and sets a finite
// MaxRangeM (no mmWave link survives a multi-block bounce) and MaxPaths.
// Deterministic: a pure function of (band, blocks). Panics if blocks < 1.
//
// Geometry: buildings are building×building squares on a pitch of
// building+street, with streets street metres wide; intersection i of the
// (blocks+1)² lattice carries gNB i.
func MetroGrid(band Band, blocks int) (*Environment, []Pose) {
	if blocks < 1 {
		panic("env: MetroGrid blocks < 1")
	}
	const (
		building = 20.0
		street   = 12.0
		pitch    = building + street
	)
	e := NewEnvironment(band)
	for by := 0; by < blocks; by++ {
		for bx := 0; bx < blocks; bx++ {
			x0 := street + float64(bx)*pitch
			y0 := street + float64(by)*pitch
			x1, y1 := x0+building, y0+building
			mat := Concrete
			if (bx+by)%3 == 2 {
				mat = Glass // every third block is a glass-façade tower
			}
			e.Walls = append(e.Walls,
				Wall{Seg: Segment{Vec2{x0, y0}, Vec2{x1, y0}}, Mat: mat},
				Wall{Seg: Segment{Vec2{x1, y0}, Vec2{x1, y1}}, Mat: mat},
				Wall{Seg: Segment{Vec2{x1, y1}, Vec2{x0, y1}}, Mat: mat},
				Wall{Seg: Segment{Vec2{x0, y1}, Vec2{x0, y0}}, Mat: mat},
			)
		}
	}
	// Street-canyon link budget: anything beyond about three blocks of
	// travel (including bounces) is unusable, and the finite range is what
	// arms the index's reflection-candidate pruning.
	e.MaxRangeM = 3 * pitch
	e.MaxPaths = 4
	e.BuildIndex()
	poses := make([]Pose, 0, (blocks+1)*(blocks+1))
	facings := [4]float64{0, math.Pi / 2, math.Pi, -math.Pi / 2}
	for iy := 0; iy <= blocks; iy++ {
		for ix := 0; ix <= blocks; ix++ {
			p := Vec2{street/2 + float64(ix)*pitch, street/2 + float64(iy)*pitch}
			poses = append(poses, Pose{Pos: p, Facing: facings[(ix+iy)%4]})
		}
	}
	return e, poses
}
