package metro

import (
	"mmreliable/internal/cluster"
	"mmreliable/internal/link"
)

// RelBins is the number of per-UE reliability histogram bins: bin k covers
// [k/10, (k+1)/10), with the last bin holding exactly-1.0 UEs.
const RelBins = 11

// Sketch is the constant-size streaming aggregate one shard folds its
// finished UEs into: two merged link meters (the concatenation of every
// folded UE's serving-leg and diversity slot streams, via link.Meter.Merge),
// a per-UE reliability histogram, and scalar extrema. Folding is O(1) per
// UE and the sketch never references the UE again — the memory contract
// that lets a churn run retire 10⁵ UE-sessions while holding O(shards)
// aggregation state.
//
// Sketches merge associatively with Merge, and every fold path in the metro
// runs in a deterministic order (site order within a shard, shard order in
// the reduction), so sketch contents are byte-identical at any worker
// count.
type Sketch struct {
	// UEs is the number of folded UEs; Measured the subset that recorded at
	// least one post-warmup slot.
	UEs      int
	Measured int
	// serving / diversity accumulate the folded UEs' meters end to end.
	// Lazily allocated so an idle shard's sketch costs nothing.
	serving   *link.Meter
	diversity *link.Meter
	// RelHist buckets folded UEs by serving-leg reliability.
	RelHist [RelBins]int
	// Handovers / PingPongs sum the folded UEs' handover activity.
	Handovers int
	PingPongs int
	// WorstOutageMs / DivWorstOutageMs are the longest single outage
	// episode any folded UE saw (serving leg / with diversity combining).
	WorstOutageMs    float64
	DivWorstOutageMs float64
}

// AddUE folds one UE into the sketch. The meters are read, never retained.
func (s *Sketch) AddUE(out cluster.UEOutcome, serving, diversity *link.Meter) {
	s.UEs++
	s.Handovers += out.Handovers
	s.PingPongs += out.PingPongs
	if serving.Slots() == 0 {
		return // never measured (e.g. admission deferred until departure)
	}
	s.Measured++
	s.ensureMeters()
	s.serving.Merge(serving)
	s.diversity.Merge(diversity)
	bin := int(out.Serving.Reliability * 10)
	if bin < 0 {
		bin = 0
	}
	if bin >= RelBins {
		bin = RelBins - 1
	}
	s.RelHist[bin]++
	if out.MaxOutageMs > s.WorstOutageMs {
		s.WorstOutageMs = out.MaxOutageMs
	}
	if out.DivMaxOutageMs > s.DivWorstOutageMs {
		s.DivWorstOutageMs = out.DivMaxOutageMs
	}
}

// Merge folds other into s (other is not modified). Sketch merging is the
// shard→metro reduction; do it in shard-index order for byte-identical
// results.
func (s *Sketch) Merge(other *Sketch) {
	s.UEs += other.UEs
	s.Measured += other.Measured
	s.Handovers += other.Handovers
	s.PingPongs += other.PingPongs
	for i, n := range other.RelHist {
		s.RelHist[i] += n
	}
	if other.WorstOutageMs > s.WorstOutageMs {
		s.WorstOutageMs = other.WorstOutageMs
	}
	if other.DivWorstOutageMs > s.DivWorstOutageMs {
		s.DivWorstOutageMs = other.DivWorstOutageMs
	}
	if other.serving != nil {
		s.ensureMeters()
		s.serving.Merge(other.serving)
		s.diversity.Merge(other.diversity)
	}
}

// Clone returns a deep copy (the reduction works on copies so Results never
// perturbs the live per-shard sketches).
func (s *Sketch) Clone() Sketch {
	c := *s
	c.serving, c.diversity = nil, nil
	if s.serving != nil {
		c.ensureMeters()
		c.serving.Merge(s.serving)
		c.diversity.Merge(s.diversity)
	}
	return c
}

// Reset empties the sketch but keeps its meters' storage, so a reduction
// scratch can be refolded every frame without allocating.
func (s *Sketch) Reset() {
	serving, diversity := s.serving, s.diversity
	*s = Sketch{serving: serving, diversity: diversity}
	if serving != nil {
		serving.Reset()
		diversity.Reset()
	}
}

// Serving summarizes the concatenated serving-leg stream of every folded
// UE (zero Summary before any measured UE).
func (s *Sketch) Serving() link.Summary {
	if s.serving == nil || s.serving.Slots() == 0 {
		return link.Summary{}
	}
	return s.serving.Summarize()
}

// Diversity summarizes the concatenated diversity stream.
func (s *Sketch) Diversity() link.Summary {
	if s.diversity == nil || s.diversity.Slots() == 0 {
		return link.Summary{}
	}
	return s.diversity.Summarize()
}

// Slots returns the total folded slot count (serving stream).
func (s *Sketch) Slots() int {
	if s.serving == nil {
		return 0
	}
	return s.serving.Slots()
}

func (s *Sketch) ensureMeters() {
	if s.serving == nil {
		s.serving = link.NewMeter()
		s.diversity = link.NewMeter()
	}
}
