package metro

import (
	"fmt"

	"mmreliable/internal/cluster"
	"mmreliable/internal/core"
	"mmreliable/internal/env"
	"mmreliable/internal/station"
)

// This file is the metro's service-layer surface: live UE attach/detach,
// blockage injection, knob hot-reload, O(sites) telemetry reads, and the
// state digest + RNG-position accessors the daemon's snapshot machinery
// uses. Everything here must only be called between frames, from the
// goroutine that calls AdvanceFrame.

// AttachSpec describes a live UE attach. Zero-value fields pick
// deterministic defaults: position from the hall lattice (keyed on the
// site's resident count), session length from the site's churn stream when
// churn is on (never-ending otherwise).
type AttachSpec struct {
	// X, Y place the UE when HasPos is set; the point must lie strictly
	// inside the hall floor and more than 0.5 m from a gNB. Otherwise a
	// lattice point is chosen deterministically.
	X      float64 `json:"x,omitempty"`
	Y      float64 `json:"y,omitempty"`
	HasPos bool    `json:"has_pos,omitempty"`
	// DurationS, when positive, detaches the UE that many seconds after
	// attach.
	DurationS float64 `json:"duration_s,omitempty"`
}

// InjectAttach adds a UE to the given site at the current frame boundary
// (admitted when the next frame runs). Mobility follows the site's
// MobileFraction draw, exactly like a churn arrival. Returns the UE id.
func (m *Metro) InjectAttach(siteIdx int, spec AttachSpec) (int, error) {
	if siteIdx < 0 || siteIdx >= len(m.sites) {
		return 0, fmt.Errorf("metro: site %d outside [0,%d)", siteIdx, len(m.sites))
	}
	if spec.DurationS < 0 {
		return 0, fmt.Errorf("metro: negative attach duration %g", spec.DurationS)
	}
	s := m.sites[siteIdx]
	pos := m.positions[s.cl.ResidentUEs()%len(m.positions)]
	if spec.HasPos {
		pos = env.Vec2{X: spec.X, Y: spec.Y}
		if err := m.checkAttachPos(pos); err != nil {
			return 0, err
		}
	}
	uc := m.newUEConfig(s, pos)
	now := s.cl.Now()
	uc.AttachAt = now
	switch {
	case spec.DurationS > 0:
		uc.DetachAt = now + spec.DurationS
	case m.cfg.ChurnArrivalRate > 0:
		uc.DetachAt = now + m.sessionLen(s)
	}
	return s.cl.AddUE(uc)
}

// minGNBClearanceM and minWallClearanceM are how close an attach position
// may come to a gNB and to any wall.
const minGNBClearanceM, minWallClearanceM = 0.5, 0.1

// checkAttachPos refuses an attach position that is not strictly inside
// the hall floor, that sits within minGNBClearanceM of a gNB, or that sits
// within minWallClearanceM of a wall (an interior partition included): the
// tracer and the link budget assume a UE in the room, off the radio heads
// and on one side of every wall.
func (m *Metro) checkAttachPos(p env.Vec2) error {
	if !(p.X > 0 && p.X < env.HallLengthM && p.Y > 0 && p.Y < env.HallWidthM) {
		return fmt.Errorf("metro: attach position (%g, %g) is not inside the %gx%g m floor",
			p.X, p.Y, env.HallLengthM, env.HallWidthM)
	}
	for i, c := range m.cells {
		if p.Dist(c.Pos) <= minGNBClearanceM {
			return fmt.Errorf("metro: attach position (%g, %g) is within %g m of gNB %d",
				p.X, p.Y, minGNBClearanceM, i)
		}
	}
	for i, w := range m.walls {
		if w.Seg.Dist(p) <= minWallClearanceM {
			return fmt.Errorf("metro: attach position (%g, %g) is within %g m of wall %d",
				p.X, p.Y, minWallClearanceM, i)
		}
	}
	return nil
}

// InjectDetach schedules the UE's departure at this frame boundary.
func (m *Metro) InjectDetach(siteIdx, ueID int) error {
	if siteIdx < 0 || siteIdx >= len(m.sites) {
		return fmt.Errorf("metro: site %d outside [0,%d)", siteIdx, len(m.sites))
	}
	return m.sites[siteIdx].cl.DetachUE(ueID)
}

// InjectBlockage schedules a live blockage on the (site, ue, cell) link
// from the current frame boundary; cell −1 targets the UE's serving cell.
// Returns the resolved cell index.
func (m *Metro) InjectBlockage(siteIdx, ueID, cell int, depthDB, durationS float64) (int, error) {
	if siteIdx < 0 || siteIdx >= len(m.sites) {
		return 0, fmt.Errorf("metro: site %d outside [0,%d)", siteIdx, len(m.sites))
	}
	return m.sites[siteIdx].cl.InjectBlockage(ueID, cell, depthDB, durationS)
}

// ApplyTuning hot-reloads the knob set on every site at this frame
// boundary. Validation is atomic across the city.
func (m *Metro) ApplyTuning(t cluster.Tuning) error {
	if err := t.Validate(); err != nil {
		return err
	}
	for _, s := range m.sites {
		if err := s.cl.ApplyTuning(t); err != nil {
			return err
		}
	}
	return nil
}

// ActiveSessions returns the total attached station sessions across the
// city — O(cells).
func (m *Metro) ActiveSessions() int {
	n := 0
	for _, s := range m.sites {
		n += s.cl.ActiveSessions()
	}
	return n
}

// CountersTotal sums every site's cluster counters — O(sites).
func (m *Metro) CountersTotal() cluster.Counters {
	var total cluster.Counters
	for _, s := range m.sites {
		total.Add(s.cl.CountersSnapshot())
	}
	return total
}

// StationCountersTotal sums every cell's station counters — O(cells).
func (m *Metro) StationCountersTotal() station.Counters {
	var total station.Counters
	for _, s := range m.sites {
		for c := 0; c < s.cl.Cells(); c++ {
			total.Add(s.cl.CellCounters(c))
		}
	}
	return total
}

// SketchTotalInto resets dst and merges the per-shard sketches of
// already-harvested UEs into it in shard-index order — O(shards), no per-UE
// walk (resident UEs are NOT folded in, unlike Results; telemetry reads
// must stay O(sites)). dst's meter storage is reused, so refolding the same
// scratch every frame stays off the allocator.
func (m *Metro) SketchTotalInto(dst *Sketch) {
	dst.Reset()
	for s := range m.sketches {
		dst.Merge(&m.sketches[s])
	}
}

// Sites returns the number of cluster sites in the city.
func (m *Metro) Sites() int { return len(m.sites) }

// SiteActiveSessions returns site i's currently attached station sessions —
// O(cells per site). Loop-owned, like every telemetry read.
func (m *Metro) SiteActiveSessions(i int) int {
	return m.sites[i].cl.ActiveSessions()
}

// SiteSketch returns a read-only view of site i's harvested-UE aggregate —
// the per-site slice of the same folds SketchTotalInto merges. O(1); the caller
// must not mutate it (Clone first to fold further). Loop-owned.
func (m *Metro) SiteSketch(i int) *Sketch { return &m.siteSketches[i] }

// SiteDraws returns every site's churn-stream consumed-draw count, in site
// order — the RNG stream positions a snapshot records.
func (m *Metro) SiteDraws() []uint64 {
	out := make([]uint64, len(m.sites))
	for i, s := range m.sites {
		out[i] = s.crs.Draws()
	}
	return out
}

// SiteNextArrivals returns every site's next churn-arrival time, in site
// order — the arrival-process state a snapshot records.
func (m *Metro) SiteNextArrivals() []float64 {
	out := make([]float64, len(m.sites))
	for i, s := range m.sites {
		out[i] = s.nextArrival
	}
	return out
}

// Digest folds the city's semantic state into d: shape, frame clock, every
// site's cluster state (in site order) plus its churn-stream position and
// arrival state, and the per-shard sketches. Identical at any worker
// count; the daemon's snapshot/restore verification hinges on it.
func (m *Metro) Digest(d *core.Digest) {
	d.Int64(m.cfg.Seed)
	d.Int(len(m.sites))
	d.Int(m.cfg.CellsPerCluster)
	d.Int(m.Shards())
	d.Int(m.frame)
	for _, s := range m.sites {
		s.cl.Digest(d)
		d.Uint64(s.crs.Draws())
		d.Float64(s.nextArrival)
	}
	for i := range m.sketches {
		m.sketches[i].Digest(d)
	}
	for i := range m.siteSketches {
		m.siteSketches[i].Digest(d)
	}
}

// DigestSum is the one-call form of Digest.
func (m *Metro) DigestSum() uint64 {
	d := core.NewDigest()
	m.Digest(d)
	return d.Sum()
}

// Digest folds the sketch's aggregate state into d.
func (s *Sketch) Digest(d *core.Digest) {
	d.Int(s.UEs)
	d.Int(s.Measured)
	for _, n := range s.RelHist {
		d.Int(n)
	}
	d.Int(s.Handovers)
	d.Int(s.PingPongs)
	d.Float64(s.WorstOutageMs)
	d.Float64(s.DivWorstOutageMs)
	if s.serving != nil {
		s.serving.Digest(d)
		s.diversity.Digest(d)
	} else {
		d.Int(-1)
	}
}
