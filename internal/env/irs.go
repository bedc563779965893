package env

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

// appendIRS appends TX → IRS i → RX, if it survives, with occlusion checks
// on both legs.
func (e *Environment) appendIRS(q *traceQuery, dst []Path, i int) []Path {
	s := e.IRSs[i]
	d1 := q.tx.Pos.Dist(s.Pos)
	d2 := s.Pos.Dist(q.rx.Pos)
	if d1 < 1e-9 || d2 < 1e-9 {
		return dst
	}
	if e.MaxRangeM > 0 && d1+d2 > e.MaxRangeM {
		return dst
	}
	dTx, dRx := s.Pos.Sub(q.tx.Pos), s.Pos.Sub(q.rx.Pos)
	if q.backHalf(dTx, dRx) {
		return dst
	}
	t1, b1 := e.transmissionLoss(Segment{q.tx.Pos, s.Pos}, -1, -1)
	if b1 {
		return dst
	}
	t2, b2 := e.transmissionLoss(Segment{s.Pos, q.rx.Pos}, -1, -1)
	if b2 {
		return dst
	}
	aod, aoa, ok := e.angles(q, dTx, dRx)
	if !ok {
		return dst
	}
	return append(dst, Path{
		AoD:    aod,
		AoA:    aoa,
		Dist:   d1 + d2,
		Delay:  (d1 + d2) / SpeedOfLight,
		LossDB: e.Band.PathLossDB(d1) + e.Band.PathLossDB(d2) - s.GainDB + t1 + t2,
		Refl:   1,
		Via:    -2 - i, // IRS i is identified by Via = −2−i (see Path.ID)
		Via2:   -1,
	})
}
