// Package env models 2-D radio environments for the mmReliable simulator:
// walls with per-material reflection/transmission losses, a first-order
// image-method ray tracer, and mmWave band models (28 GHz and 60 GHz free
// space path loss plus atmospheric absorption).
//
// This package substitutes for the paper's physical 28 GHz testbed and for
// the Wireless Insite ray tracer used in its Appendix B: every algorithm
// above consumes only the per-path parameters (angle of departure/arrival,
// delay, amplitude) that this tracer produces.
package env

import "math"

// Vec2 is a point or direction in the 2-D plane (meters).
type Vec2 struct {
	X, Y float64
}

// Add returns v + u.
func (v Vec2) Add(u Vec2) Vec2 { return Vec2{v.X + u.X, v.Y + u.Y} }

// Sub returns v − u.
func (v Vec2) Sub(u Vec2) Vec2 { return Vec2{v.X - u.X, v.Y - u.Y} }

// Scale returns s·v.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{s * v.X, s * v.Y} }

// Dot returns the dot product v·u.
func (v Vec2) Dot(u Vec2) float64 { return v.X*u.X + v.Y*u.Y }

// Cross returns the 2-D cross product v×u (the z-component).
func (v Vec2) Cross(u Vec2) float64 { return v.X*u.Y - v.Y*u.X }

// Norm returns the Euclidean length of v.
func (v Vec2) Norm() float64 { return math.Hypot(v.X, v.Y) }

// Angle returns the direction of v in radians, in (−π, π].
func (v Vec2) Angle() float64 { return math.Atan2(v.Y, v.X) }

// Dist returns the distance between v and u.
func (v Vec2) Dist(u Vec2) float64 { return v.Sub(u).Norm() }

// Segment is a finite line segment between A and B.
type Segment struct {
	A, B Vec2
}

// Len returns the segment length.
func (s Segment) Len() float64 { return s.A.Dist(s.B) }

// Dist returns the distance from p to the nearest point of the segment.
func (s Segment) Dist(p Vec2) float64 { return math.Sqrt(distSqToSegment(p, s)) }

// intersect returns (t, u, ok): the parametric intersection of segment s
// (parameter t in [0,1]) with segment o (parameter u in [0,1]). ok is false
// for parallel or non-crossing segments.
func (s Segment) intersect(o Segment) (t, u float64, ok bool) {
	r := s.B.Sub(s.A)
	d := o.B.Sub(o.A)
	den := r.Cross(d)
	if math.Abs(den) < 1e-15 {
		return 0, 0, false
	}
	qp := o.A.Sub(s.A)
	t = qp.Cross(d) / den
	u = qp.Cross(r) / den
	if t < 0 || t > 1 || u < 0 || u > 1 {
		return t, u, false
	}
	return t, u, true
}

// Intersects reports whether the two segments cross, and the crossing point.
func (s Segment) Intersects(o Segment) (Vec2, bool) {
	t, _, ok := s.intersect(o)
	if !ok {
		return Vec2{}, false
	}
	return s.A.Add(s.B.Sub(s.A).Scale(t)), true
}

// mirror reflects point p across the infinite line through the segment.
func (s Segment) mirror(p Vec2) Vec2 {
	d := s.B.Sub(s.A)
	n2 := d.Dot(d)
	if n2 == 0 {
		return p
	}
	t := p.Sub(s.A).Dot(d) / n2
	foot := s.A.Add(d.Scale(t))
	return foot.Add(foot.Sub(p))
}

// relAngle returns the angle of direction dir relative to a broadside
// orientation facing, wrapped to (−π, π].
func relAngle(dir Vec2, facing float64) float64 {
	a := dir.Angle() - facing
	for a > math.Pi {
		a -= 2 * math.Pi
	}
	for a <= -math.Pi {
		a += 2 * math.Pi
	}
	return a
}
