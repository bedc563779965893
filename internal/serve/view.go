package serve

import (
	"fmt"
	"slices"
	"time"

	"mmreliable/internal/metro"
	"mmreliable/internal/station"
)

// view is the read side's copy of one frame boundary: the Status (its
// digest kept as the uint64, formatted only when a reader renders it) plus
// the O(sites) values the /metrics exposition renders. The loop fills one
// and publishes it; readers copy it out and render on their own goroutine,
// so a read never waits for a frame and never enters the command queue.
type view struct {
	st     Status // Digest empty; see digest
	digest uint64

	station           station.Counters
	harvestedMeasured int
	diversityRel      float64
	relHist           [metro.RelBins]int
	scriptErrs        int

	site []siteView // per-site series, in site order
}

// siteView is one site's share of the site-labeled /metrics series.
type siteView struct {
	activeSessions int
	harvestedUEs   int
	servingRel     float64
	diversityRel   float64
}

// capture fills v from the quiescent metro. Loop-owned; allocation-free
// once v.site and the harvest scratch have grown to the city's size.
func (s *Server) capture(v *view) {
	m := s.m
	m.SketchTotalInto(&s.harvest)
	sk := &s.harvest
	*v = view{
		st: Status{
			Frame:            m.Frame(),
			SimTimeS:         float64(m.Frame()) * m.FramePeriod(),
			Sites:            s.cfg.Metro.Clusters,
			Cells:            m.Cells(),
			ResidentUEs:      m.ResidentUEs(),
			ActiveSessions:   m.ActiveSessions(),
			Counters:         m.CountersTotal(),
			HarvestedUEs:     sk.UEs,
			HarvestedServing: sk.Serving(),
			WorstOutageMs:    sk.WorstOutageMs,
			JournalLen:       len(s.journal),
		},
		digest:            m.DigestSum(),
		station:           m.StationCountersTotal(),
		harvestedMeasured: sk.Measured,
		diversityRel:      sk.Diversity().Reliability,
		relHist:           sk.RelHist,
		scriptErrs:        s.scriptErrs,
		site:              v.site[:0],
	}
	if f := m.Frame(); !s.startWall.IsZero() && f > s.startFrame {
		if el := time.Since(s.startWall).Seconds(); el > 0 {
			v.st.UEsPerSec = float64(v.st.ResidentUEs) * float64(f-s.startFrame) / el
		}
	}
	for i := 0; i < m.Sites(); i++ {
		ss := m.SiteSketch(i)
		v.site = append(v.site, siteView{
			activeSessions: m.SiteActiveSessions(i),
			harvestedUEs:   ss.UEs,
			servingRel:     ss.Serving().Reliability,
			diversityRel:   ss.Diversity().Reliability,
		})
	}
}

// status renders the view as the daemon's Status.
func (v *view) status() Status {
	st := v.st
	st.Digest = fmt.Sprintf("%016x", v.digest)
	return st
}

// publish captures the current boundary into the back buffer and swaps it
// in as the view readers see. Loop-owned: the loop is the only writer of
// front and back, so it may read front without the lock.
func (s *Server) publish() {
	s.capture(s.back)
	s.viewMu.Lock()
	s.front, s.back = s.back, s.front
	s.published = true
	s.viewMu.Unlock()
}

// copyView copies the published view into v and reports whether there was
// one.
func (s *Server) copyView(v *view) bool {
	s.viewMu.Lock()
	defer s.viewMu.Unlock()
	if !s.published {
		return false
	}
	*v = *s.front
	v.site = slices.Clone(s.front.site)
	return true
}

// lastView returns a copy of the last published boundary view. A read
// that arrives before the loop's first publication waits for it through
// the command queue; once the loop has stopped it fails with ErrStopped.
func (s *Server) lastView() (*view, error) {
	select {
	case <-s.done:
		return nil, ErrStopped
	default:
	}
	v := &view{}
	if s.copyView(v) {
		return v, nil
	}
	_, err := s.do(&pending{reply: make(chan reply, 1), query: func() (any, error) {
		s.publish()
		return nil, nil
	}})
	if err != nil {
		return nil, err
	}
	s.copyView(v)
	return v, nil
}
