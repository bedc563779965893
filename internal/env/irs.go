package env

import "math"

// IRS is an intelligent reflecting surface (§8 of the paper: future
// deployments "where intelligent reflecting surfaces are deployed in the
// environment to engineer strong reflections"). Unlike a passive wall, an
// IRS re-radiates toward the receiver regardless of the specular law, but
// pays the product-of-distances path loss of a re-radiating aperture:
//
//	loss = FSPL(d_tx→irs) + FSPL(d_irs→rx) − Gain
//
// where Gain is the surface's aperture/beamforming gain. With enough
// elements an IRS turns a dead corner into a reliable second path.
type IRS struct {
	Pos    Vec2
	GainDB float64
}

// irsPath traces TX → IRS i → RX with occlusion checks on both legs.
func (e *Environment) irsPath(tx, rx Pose, i int) (Path, bool) {
	s := e.IRSs[i]
	d1 := tx.Pos.Dist(s.Pos)
	d2 := s.Pos.Dist(rx.Pos)
	if d1 < 1e-9 || d2 < 1e-9 {
		return Path{}, false
	}
	if e.MaxRangeM > 0 && d1+d2 > e.MaxRangeM {
		return Path{}, false
	}
	t1, b1 := e.transmissionLoss(Segment{tx.Pos, s.Pos}, -1, -1)
	if b1 {
		return Path{}, false
	}
	t2, b2 := e.transmissionLoss(Segment{s.Pos, rx.Pos}, -1, -1)
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
		Via:    -2 - i, // IRS i is identified by Via = −2−i (see Path.ID)
		Via2:   -1,
	}
	if e.FrontHalfOnly && (math.Abs(p.AoD) > math.Pi/2 || math.Abs(p.AoA) > math.Pi/2) {
		return Path{}, false
	}
	return p, true
}
