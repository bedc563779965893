package link

import (
	"fmt"
	"math"
)

// Meter accumulates per-slot link outcomes over an observation interval and
// reports the paper's metrics: reliability (Eq. 1, the fraction of time the
// link is available), average throughput, and their product.
//
// A slot counts as unavailable when its SNR is below the outage threshold
// OR the slot was consumed by beam training (the paper's definition charges
// training time against reliability).
type Meter struct {
	slots      int
	available  int
	thrSum     float64 // bits/s summed over slots
	snrSum     float64
	minSNR     float64
	outageRuns int
	inOutage   bool

	// Outage-duration tracking: how LONG the link stays down, not just how
	// often. curRun is the length (slots) of the outage episode in
	// progress; runs holds the closed episodes' lengths in slots (float64
	// so they feed stats percentiles directly). The buffer is bounded at
	// maxOutageRuns episodes as a ring keeping the most recent ones —
	// unbounded appends would leak heap into the pinned-zero-alloc station
	// and cluster steady states (training slots close an episode on every
	// maintenance round). runsStart is the ring's oldest element once full;
	// runsDropped counts episodes that fell off the front.
	curRun      int
	totalOutage int
	maxRun      int
	runs        []float64
	runsStart   int
	runsDropped int

	// leadRun is the length of the outage episode that begins at the very
	// first recorded slot (0 if the stream opened with an available slot).
	// It freezes as soon as the first available slot arrives. Merge needs
	// it: when meter A ends inside an outage and meter B's stream begins
	// inside one, concatenation fuses A's open episode with B's leading
	// episode into a single longer one.
	leadRun int
}

// maxOutageRuns bounds the per-meter outage-episode history. At the default
// 20 ms frame with one maintenance round per frame this covers seconds of
// continuous episode churn; aggregate counts (OutageEvents, OutageSlots,
// MaxOutageSlots) are exact regardless.
const maxOutageRuns = 256

// NewMeter returns an empty meter.
func NewMeter() *Meter {
	return &Meter{minSNR: math.Inf(1)}
}

// Reset empties the meter but keeps its episode-history buffer, so a
// reduction scratch can be refolded every frame without allocating.
func (m *Meter) Reset() { *m = Meter{minSNR: math.Inf(1), runs: m.runs[:0]} }

// Record adds one slot outcome. snrDB may be −Inf; training marks the slot
// as consumed by beam management (unavailable regardless of SNR);
// throughput is the data rate achieved in the slot (0 during training or
// outage).
func (m *Meter) Record(snrDB float64, training bool, throughput float64) {
	m.slots++
	outage := training || snrDB < OutageThresholdDB
	if !outage {
		m.available++
	}
	if outage && !m.inOutage {
		m.outageRuns++
	}
	if outage {
		m.curRun++
		m.totalOutage++
		if m.curRun > m.maxRun {
			m.maxRun = m.curRun
		}
		if m.totalOutage == m.slots {
			// Every slot so far is an outage: still inside the leading
			// episode (see leadRun). One available slot breaks the
			// equality forever, freezing leadRun.
			m.leadRun++
		}
	} else if m.inOutage {
		m.recordRun(float64(m.curRun))
		m.curRun = 0
	}
	m.inOutage = outage
	m.thrSum += throughput
	if !math.IsInf(snrDB, -1) {
		m.snrSum += snrDB
	}
	if snrDB < m.minSNR {
		m.minSNR = snrDB
	}
}

// recordRun stores a closed episode's duration in the bounded ring. The
// first maxOutageRuns episodes allocate the buffer once (lazily, so a
// quiescent link never touches the allocator); after that the oldest
// episode is overwritten in place — the steady state stays alloc-free no
// matter how long the run.
func (m *Meter) recordRun(d float64) {
	if len(m.runs) < maxOutageRuns {
		if m.runs == nil {
			m.runs = make([]float64, 0, maxOutageRuns)
		}
		m.runs = append(m.runs, d)
		return
	}
	m.runs[m.runsStart] = d
	m.runsStart++
	if m.runsStart == len(m.runs) {
		m.runsStart = 0
	}
	m.runsDropped++
}

// Slots returns the number of recorded slots.
func (m *Meter) Slots() int { return m.slots }

// Reliability returns the fraction of slots during which the link was
// available (Eq. 1). It returns 0 before any slot is recorded.
func (m *Meter) Reliability() float64 {
	if m.slots == 0 {
		return 0
	}
	return float64(m.available) / float64(m.slots)
}

// MeanThroughput returns the average throughput across all slots in bits/s
// (outage slots count as zero, as in the paper's time averages).
func (m *Meter) MeanThroughput() float64 {
	if m.slots == 0 {
		return 0
	}
	return m.thrSum / float64(m.slots)
}

// MeanSNRdB returns the average of finite SNR samples.
func (m *Meter) MeanSNRdB() float64 {
	if m.slots == 0 {
		return 0
	}
	return m.snrSum / float64(m.slots)
}

// MinSNRdB returns the worst recorded SNR (+Inf before any record).
func (m *Meter) MinSNRdB() float64 { return m.minSNR }

// OutageEvents returns the number of distinct outage episodes.
func (m *Meter) OutageEvents() int { return m.outageRuns }

// OutageSlots returns the total number of unavailable slots.
func (m *Meter) OutageSlots() int { return m.totalOutage }

// MaxOutageSlots returns the length of the longest outage episode in
// slots, the episode in progress included — the handover-benefit headline
// (reliability hides whether the downtime came as one long blackout or
// many short dips; the max duration does not).
func (m *Meter) MaxOutageSlots() int { return m.maxRun }

// OutageDurations appends the retained outage episodes' durations in slots
// (closed episodes plus the one in progress, in onset order) to dst and
// returns it — float64 so the result feeds stats.Percentile directly. The
// history is bounded: after maxOutageRuns closed episodes the oldest are
// dropped (see DroppedOutageRuns); the most recent ones are always present.
func (m *Meter) OutageDurations(dst []float64) []float64 {
	dst = append(dst, m.runs[m.runsStart:]...)
	dst = append(dst, m.runs[:m.runsStart]...)
	if m.curRun > 0 {
		dst = append(dst, float64(m.curRun))
	}
	return dst
}

// DroppedOutageRuns returns how many closed episodes fell off the bounded
// duration history (0 until more than maxOutageRuns episodes close).
func (m *Meter) DroppedOutageRuns() int { return m.runsDropped }

// TRProduct returns the throughput–reliability product (the paper's
// headline comparison metric, Fig. 18c), in bits/s.
func (m *Meter) TRProduct() float64 {
	return m.MeanThroughput() * m.Reliability()
}

// Summary is a value snapshot of a Meter for aggregation across runs.
type Summary struct {
	Reliability    float64
	MeanThroughput float64 // bits/s
	MeanSNRdB      float64
	TRProduct      float64
	OutageEvents   int
	// OutageSlots / MaxOutageSlots report outage time (total and longest
	// single episode, in slots) rather than episode count.
	OutageSlots    int
	MaxOutageSlots int
}

// Summarize returns the meter's metrics as a value.
func (m *Meter) Summarize() Summary {
	return Summary{
		Reliability:    m.Reliability(),
		MeanThroughput: m.MeanThroughput(),
		MeanSNRdB:      m.MeanSNRdB(),
		TRProduct:      m.TRProduct(),
		OutageEvents:   m.OutageEvents(),
		OutageSlots:    m.OutageSlots(),
		MaxOutageSlots: m.MaxOutageSlots(),
	}
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("rel=%.3f thr=%.1f Mbps snr=%.1f dB trp=%.1f Mbps outages=%d",
		s.Reliability, s.MeanThroughput/1e6, s.MeanSNRdB, s.TRProduct/1e6, s.OutageEvents)
}
