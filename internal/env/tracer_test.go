package env

import (
	"math"
	"math/rand"
	"testing"
)

func TestVec2Ops(t *testing.T) {
	a := Vec2{3, 4}
	if a.Norm() != 5 {
		t.Fatalf("Norm = %g", a.Norm())
	}
	if got := a.Add(Vec2{1, -1}); got != (Vec2{4, 3}) {
		t.Fatalf("Add = %v", got)
	}
	if got := a.Sub(Vec2{3, 4}); got != (Vec2{0, 0}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := a.Scale(2); got != (Vec2{6, 8}) {
		t.Fatalf("Scale = %v", got)
	}
	if got := a.Dot(Vec2{1, 1}); got != 7 {
		t.Fatalf("Dot = %g", got)
	}
	if got := (Vec2{1, 0}).Cross(Vec2{0, 1}); got != 1 {
		t.Fatalf("Cross = %g", got)
	}
	if got := (Vec2{0, 2}).Angle(); math.Abs(got-math.Pi/2) > 1e-12 {
		t.Fatalf("Angle = %g", got)
	}
	if got := a.Dist(Vec2{0, 0}); got != 5 {
		t.Fatalf("Dist = %g", got)
	}
}

func TestSegmentIntersection(t *testing.T) {
	s := Segment{Vec2{0, 0}, Vec2{2, 2}}
	o := Segment{Vec2{0, 2}, Vec2{2, 0}}
	pt, ok := s.Intersects(o)
	if !ok || pt.Dist(Vec2{1, 1}) > 1e-12 {
		t.Fatalf("intersection = %v ok=%v", pt, ok)
	}
	// Parallel segments don't cross.
	if _, ok := s.Intersects(Segment{Vec2{0, 1}, Vec2{2, 3}}); ok {
		t.Fatal("parallel segments should not intersect")
	}
	// Disjoint segments.
	if _, ok := s.Intersects(Segment{Vec2{5, 0}, Vec2{5, 1}}); ok {
		t.Fatal("disjoint segments should not intersect")
	}
}

func TestMirror(t *testing.T) {
	// Mirror across the x-axis.
	s := Segment{Vec2{0, 0}, Vec2{10, 0}}
	got := s.mirror(Vec2{3, 4})
	if got.Dist(Vec2{3, -4}) > 1e-12 {
		t.Fatalf("mirror = %v", got)
	}
	// Mirror across a vertical line x=2.
	v := Segment{Vec2{2, -1}, Vec2{2, 5}}
	got = v.mirror(Vec2{0, 1})
	if got.Dist(Vec2{4, 1}) > 1e-12 {
		t.Fatalf("mirror = %v", got)
	}
}

func TestBandConstants(t *testing.T) {
	b28, b60 := Band28GHz(), Band60GHz()
	if math.Abs(b28.Lambda()-0.0107) > 1e-3 {
		t.Fatalf("28 GHz λ = %g", b28.Lambda())
	}
	// FSPL at 10 m, 28 GHz ≈ 81.4 dB.
	if got := b28.FSPLdB(10); math.Abs(got-81.4) > 0.5 {
		t.Fatalf("FSPL(10m, 28GHz) = %g", got)
	}
	// 60 GHz loses ≈ 6.6 dB more in free space at equal distance.
	diff := b60.FSPLdB(10) - b28.FSPLdB(10)
	if math.Abs(diff-6.62) > 0.1 {
		t.Fatalf("60−28 GHz FSPL gap = %g", diff)
	}
	// Absorption matters at long range for 60 GHz.
	if b60.PathLossDB(500)-b60.FSPLdB(500) < 7 {
		t.Fatal("60 GHz absorption too small at 500 m")
	}
	if b28.PathLossDB(500)-b28.FSPLdB(500) > 0.1 {
		t.Fatal("28 GHz absorption should be negligible")
	}
	if b28.FSPLdB(0) != 0 {
		t.Fatal("FSPL at d=0 should be 0 by convention")
	}
}

func TestLOSTrace(t *testing.T) {
	e := NewEnvironment(Band28GHz())
	tx := Pose{Pos: Vec2{0, 0}, Facing: 0}
	rx := Pose{Pos: Vec2{10, 0}, Facing: math.Pi}
	paths := e.Trace(tx, rx)
	if len(paths) != 1 {
		t.Fatalf("expected 1 LOS path, got %d", len(paths))
	}
	p := paths[0]
	if p.Refl != 0 || p.Via != -1 {
		t.Fatalf("not LOS: %+v", p)
	}
	if math.Abs(p.AoD) > 1e-12 || math.Abs(p.AoA) > 1e-12 {
		t.Fatalf("angles: AoD=%g AoA=%g", p.AoD, p.AoA)
	}
	if math.Abs(p.Dist-10) > 1e-12 {
		t.Fatalf("dist = %g", p.Dist)
	}
	if math.Abs(p.Delay-10/SpeedOfLight) > 1e-18 {
		t.Fatalf("delay = %g", p.Delay)
	}
	if math.Abs(p.LossDB-Band28GHz().PathLossDB(10)) > 1e-9 {
		t.Fatalf("loss = %g", p.LossDB)
	}
}

func TestReflectedPathGeometry(t *testing.T) {
	// Wall along y=5: TX (0,0), RX (10,0). Image of TX is (0,10); the
	// reflection point is (5,5); path length = |(0,10)-(10,0)| = √200.
	wall := Wall{Seg: Segment{Vec2{-20, 5}, Vec2{30, 5}}, Mat: Metal}
	e := NewEnvironment(Band28GHz(), wall)
	tx := Pose{Pos: Vec2{0, 0}, Facing: 0}
	rx := Pose{Pos: Vec2{10, 0}, Facing: math.Pi}
	paths := e.Trace(tx, rx)
	if len(paths) != 2 {
		t.Fatalf("expected LOS + 1 reflection, got %d: %v", len(paths), paths)
	}
	// Strongest first: LOS (no reflection loss, shorter) then reflection.
	if paths[0].Refl != 0 || paths[1].Refl != 1 {
		t.Fatalf("ordering wrong: %v", paths)
	}
	r := paths[1]
	wantDist := math.Sqrt(200)
	if math.Abs(r.Dist-wantDist) > 1e-9 {
		t.Fatalf("reflected dist = %g want %g", r.Dist, wantDist)
	}
	// AoD: toward (5,5) from (0,0) = 45°.
	if math.Abs(r.AoD-math.Pi/4) > 1e-9 {
		t.Fatalf("AoD = %g", r.AoD)
	}
	// AoA relative to RX facing π: direction to (5,5) from (10,0) is 135°,
	// relative angle = 135° − 180° = −45°.
	if math.Abs(r.AoA+math.Pi/4) > 1e-9 {
		t.Fatalf("AoA = %g", r.AoA)
	}
	if !r.PhasePi {
		t.Fatal("single reflection should flip phase")
	}
	wantLoss := Band28GHz().PathLossDB(wantDist) + Metal.ReflLossDB
	if math.Abs(r.LossDB-wantLoss) > 1e-9 {
		t.Fatalf("loss = %g want %g", r.LossDB, wantLoss)
	}
}

func TestNoReflectionWhenHitPointOffWall(t *testing.T) {
	// Short wall far to the side: the mirror ray misses the segment.
	wall := Wall{Seg: Segment{Vec2{-30, 5}, Vec2{-25, 5}}, Mat: Metal}
	e := NewEnvironment(Band28GHz(), wall)
	paths := e.Trace(Pose{Pos: Vec2{0, 0}}, Pose{Pos: Vec2{10, 0}, Facing: math.Pi})
	for _, p := range paths {
		if p.Refl != 0 {
			t.Fatalf("unexpected reflection: %v", p)
		}
	}
}

func TestBlockedLOS(t *testing.T) {
	// A concrete wall (40 dB transmission) straight across the LOS blocks it.
	block := Wall{Seg: Segment{Vec2{5, -2}, Vec2{5, 2}}, Mat: Concrete}
	mirror := Wall{Seg: Segment{Vec2{-20, 5}, Vec2{30, 5}}, Mat: Metal}
	e := NewEnvironment(Band28GHz(), block, mirror)
	paths := e.Trace(Pose{Pos: Vec2{0, 0}}, Pose{Pos: Vec2{10, 0}, Facing: math.Pi})
	// LOS passes through 40 dB of concrete and survives as a weak path
	// (40 < 50 dB hard block), but must now be weaker than the reflection.
	if len(paths) < 2 {
		t.Fatalf("paths: %v", paths)
	}
	if paths[0].Refl != 1 {
		t.Fatalf("reflection should now be strongest: %v", paths)
	}
	// Glass blocker only adds 8 dB; the LOS survives (possibly no longer
	// strongest, since the metal reflection loses just 1 dB + extra FSPL).
	e2 := NewEnvironment(Band28GHz(),
		Wall{Seg: Segment{Vec2{5, -2}, Vec2{5, 2}}, Mat: Glass}, mirror)
	paths2 := e2.Trace(Pose{Pos: Vec2{0, 0}}, Pose{Pos: Vec2{10, 0}, Facing: math.Pi})
	losSurvives := false
	for _, p := range paths2 {
		if p.Refl == 0 {
			losSurvives = true
			wantLoss := Band28GHz().PathLossDB(10) + Glass.TransLossD
			if math.Abs(p.LossDB-wantLoss) > 1e-9 {
				t.Fatalf("glass-blocked LOS loss %g want %g", p.LossDB, wantLoss)
			}
		}
	}
	if !losSurvives {
		t.Fatalf("LOS through glass should survive: %v", paths2)
	}
	// Metal blocker (60 dB) kills the LOS entirely.
	e3 := NewEnvironment(Band28GHz(),
		Wall{Seg: Segment{Vec2{5, -2}, Vec2{5, 2}}, Mat: Metal}, mirror)
	for _, p := range e3.Trace(Pose{Pos: Vec2{0, 0}}, Pose{Pos: Vec2{10, 0}, Facing: math.Pi}) {
		if p.Refl == 0 {
			t.Fatalf("LOS through metal should be dropped: %v", p)
		}
	}
}

func TestFrontHalfFilter(t *testing.T) {
	e := NewEnvironment(Band28GHz())
	// RX behind the TX broadside (facing +x, RX at −x).
	paths := e.Trace(Pose{Pos: Vec2{0, 0}, Facing: 0}, Pose{Pos: Vec2{-10, 0}, Facing: 0})
	if len(paths) != 0 {
		t.Fatalf("back-lobe path not filtered: %v", paths)
	}
	e.FrontHalfOnly = false
	paths = e.Trace(Pose{Pos: Vec2{0, 0}, Facing: 0}, Pose{Pos: Vec2{-10, 0}, Facing: 0})
	if len(paths) != 1 {
		t.Fatalf("full-sphere trace missing path: %v", paths)
	}
}

func TestMaxPathsCap(t *testing.T) {
	e := ConferenceRoom(Band28GHz())
	tx := GNBPose(true)
	rx := Pose{Pos: Vec2{7, 3.5}, Facing: math.Pi}
	all := e.Trace(tx, rx)
	if len(all) < 3 {
		t.Fatalf("conference room should give ≥3 paths, got %d", len(all))
	}
	e.MaxPaths = 2
	capped := e.Trace(tx, rx)
	if len(capped) != 2 {
		t.Fatalf("MaxPaths not applied: %d", len(capped))
	}
	// Capped list keeps the strongest paths.
	if capped[0].LossDB != all[0].LossDB || capped[1].LossDB != all[1].LossDB {
		t.Fatal("cap kept the wrong paths")
	}
}

func TestConferenceRoomScene(t *testing.T) {
	e := ConferenceRoom(Band28GHz())
	tx := GNBPose(true)
	rx := Pose{Pos: Vec2{6.5, 3.5}, Facing: math.Pi}
	paths := e.Trace(tx, rx)
	if len(paths) < 2 {
		t.Fatalf("expected multipath in conference room, got %d paths", len(paths))
	}
	if paths[0].Refl != 0 {
		t.Fatal("LOS should be strongest in open room")
	}
	// Reflected paths should be within ~15 dB of the direct (paper Fig. 4a:
	// common reflectors 1–10 dB relative attenuation).
	rel := paths[1].LossDB - paths[0].LossDB
	if rel < 0.5 || rel > 20 {
		t.Fatalf("relative attenuation %g dB implausible", rel)
	}
}

func TestOutdoorScene(t *testing.T) {
	e := OutdoorStreet(Band28GHz())
	tx := GNBPose(false)
	rx := Pose{Pos: Vec2{60, 0.5}, Facing: math.Pi}
	paths := e.Trace(tx, rx)
	if len(paths) < 2 {
		t.Fatalf("expected building reflection outdoors, got %d", len(paths))
	}
	foundRefl := false
	for _, p := range paths {
		if p.Refl == 1 {
			foundRefl = true
		}
	}
	if !foundRefl {
		t.Fatal("no reflected path from facade")
	}
}

func TestRandomScenesAlwaysViable(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 60; trial++ {
		e, gnb := RandomIndoor(rng, Band28GHz())
		// UE somewhere in the room interior facing the gNB.
		uePos := Vec2{2 + 2*rng.Float64(), 1 + 2*rng.Float64()}
		ue := Pose{Pos: uePos, Facing: FacingFrom(uePos, gnb.Pos)}
		paths := e.Trace(gnb, ue)
		if len(paths) == 0 {
			t.Fatalf("trial %d: random indoor scene has no path", trial)
		}
		for _, p := range paths {
			if p.LossDB < 40 || p.LossDB > 200 {
				t.Fatalf("trial %d: implausible loss %g", trial, p.LossDB)
			}
			if p.Delay <= 0 {
				t.Fatalf("trial %d: non-positive delay", trial)
			}
		}
	}
	for trial := 0; trial < 40; trial++ {
		e, gnb := RandomOutdoor(rng, Band28GHz())
		d := 10 + 70*rng.Float64()
		uePos := Vec2{d, -1 + 2*rng.Float64()}
		ue := Pose{Pos: uePos, Facing: FacingFrom(uePos, gnb.Pos)}
		if len(e.Trace(gnb, ue)) == 0 {
			t.Fatalf("trial %d: random outdoor scene has no path", trial)
		}
	}
}

func TestPathStringer(t *testing.T) {
	p := Path{AoD: math.Pi / 6, Dist: 5, LossDB: 80}
	if s := p.String(); s == "" {
		t.Fatal("empty String()")
	}
	r := Path{Refl: 1, Via: 2}
	if s := r.String(); s == "" {
		t.Fatal("empty String()")
	}
}

func TestFacingFrom(t *testing.T) {
	if got := FacingFrom(Vec2{0, 0}, Vec2{0, 5}); math.Abs(got-math.Pi/2) > 1e-12 {
		t.Fatalf("FacingFrom = %g", got)
	}
}

// TestRelAngleAnyFacing pins relAngle beyond the wrap loop's ±4π domain:
// a large finite facing wraps into (−π, π] in one reduction, pointing where
// the unreduced offset points, and a facing that is not finite yields NaN
// at once instead of looping.
func TestRelAngleAnyFacing(t *testing.T) {
	dir := Vec2{1, 2}
	for _, f := range []float64{13, -13, 1e6, -1e6, 1e17, -1e300} {
		a := relAngle(dir, f)
		if !(a > -math.Pi && a <= math.Pi) {
			t.Fatalf("facing %g: angle %g outside (−π, π]", f, a)
		}
		if f > 1e16 || f < -1e16 {
			continue // the offset itself has rounded away the direction
		}
		raw := dir.Angle() - f
		if math.Abs(math.Sin(a)-math.Sin(raw)) > 1e-9 || math.Abs(math.Cos(a)-math.Cos(raw)) > 1e-9 {
			t.Fatalf("facing %g: wrapped angle %g does not point along %g", f, a, raw)
		}
	}
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if a := relAngle(dir, f); !math.IsNaN(a) {
			t.Fatalf("facing %g: angle %g, want NaN", f, a)
		}
	}
}
