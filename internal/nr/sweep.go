package nr

import (
	"math"

	"mmreliable/internal/antenna"
	"mmreliable/internal/channel"
	"mmreliable/internal/cmx"
)

// The paper's SSB training setup. The mmReliable manager, every baseline
// and the handover controller train with these values, so the schemes are
// compared on one setup by construction.
const (
	// CodebookSize is the number of beams the exhaustive SSB sweep probes,
	// evenly spaced over ±ScanRangeDeg.
	CodebookSize = 33
	// ScanRangeDeg bounds every training sweep, in degrees either side of
	// broadside.
	ScanRangeDeg = 60
	// NumSC is the sounding subcarrier count (a power of two).
	NumSC = 64
	// SSBPeriod gates full training starts to SSB occasions (5G NR's
	// default 20 ms); CSI-RS maintenance is not gated.
	SSBPeriod = 20e-3
)

// SweepResult is the outcome of an SSB beam-training sweep.
type SweepResult struct {
	RSS      []float64 // received signal strength per codebook entry
	Peaks    []int     // selected viable-beam indices, strongest first
	AirTime  float64   // total signaling time consumed (s)
	NumProbe int       // probes issued
}

// AnglesInto appends the nominal angle of each selected peak to dst and
// returns it.
func (r SweepResult) AnglesInto(cb *antenna.Codebook, dst []float64) []float64 {
	for _, p := range r.Peaks {
		dst = append(dst, cb.Angles[p])
	}
	return dst
}

// SweepScratch holds the reusable storage one SweepInto call needs: the RSS
// vector (which the returned SweepResult references — valid until the next
// SweepInto with the same scratch), the peak-selection mask and index list,
// and the probe CSI landing buffer. The zero value is ready to use; buffers
// grow on first use and are retained, so a manager that re-trains
// periodically sweeps without touching the allocator.
type SweepScratch struct {
	rss   []float64
	mask  []bool
	peaks []int
	csi   cmx.Vector
}

// SweepInto performs an exhaustive SSB sweep over the codebook, measuring
// RSS with each beam, and selects up to maxBeams viable directions: local
// RSS peaks separated by at least minSepIdx codebook entries and within
// dynRangeDB of the strongest (see selectPeaksInto). This is the paper's "any
// standard beam training" building block (Fig. 2). Every buffer, the
// returned RSS and Peaks included, is drawn from sc.
func SweepInto(s *Sounder, m *channel.Model, cb *antenna.Codebook, maxBeams, minSepIdx int, dynRangeDB float64, sc *SweepScratch) SweepResult {
	n := cb.Len()
	if cap(sc.rss) < n {
		sc.rss = make([]float64, n)
	}
	if cap(sc.csi) < s.NumSC {
		sc.csi = make(cmx.Vector, s.NumSC)
	}
	res := SweepResult{RSS: sc.rss[:n]}
	csi := sc.csi[:s.NumSC]
	for i, w := range cb.Weights {
		res.RSS[i] = RSS(s.ProbeInto(m, w, csi))
		res.NumProbe++
	}
	res.AirTime = float64(res.NumProbe) * s.Num.SSBDuration()
	res.Peaks = selectPeaksInto(sc, res.RSS, maxBeams, minSepIdx, dynRangeDB)
	return res
}

// selectPeaksInto picks up to maxBeams viable-beam indices from an RSS
// sweep by successive masked selection (matching-pursuit style): take the
// global maximum, mask out its angular neighborhood (± minSep−1 indices),
// take the next maximum, and so on. Candidates more than dynRangeDB below
// the strongest are rejected. This finds a second path even when wide
// scanning beams merge two nearby paths into a single hump with no second
// local maximum. Results are ordered strongest first and live in sc's
// mask/peak storage. The greedy selection yields peaks in non-increasing
// RSS order already, so the final stable insertion sort is a no-op guard
// that matches sort.Slice's behavior on the tiny (≤ maxBeams) slices
// involved.
func selectPeaksInto(sc *SweepScratch, rss []float64, maxBeams, minSep int, dynRangeDB float64) []int {
	if len(rss) == 0 || maxBeams <= 0 {
		return nil
	}
	if minSep < 1 {
		minSep = 1
	}
	if cap(sc.mask) < len(rss) {
		sc.mask = make([]bool, len(rss))
	}
	masked := sc.mask[:len(rss)]
	for i := range masked {
		masked[i] = false
	}
	peaks := sc.peaks[:0]
	floor := math.Inf(1)
	for len(peaks) < maxBeams {
		best, bestVal := -1, 0.0
		for i, v := range rss {
			if !masked[i] && (best == -1 || v > bestVal) {
				best, bestVal = i, v
			}
		}
		if best == -1 {
			break
		}
		if len(peaks) == 0 {
			floor = bestVal * math.Pow(10, -dynRangeDB/10)
		} else if bestVal < floor {
			break
		}
		peaks = append(peaks, best)
		for i := best - (minSep - 1); i <= best+(minSep-1); i++ {
			if i >= 0 && i < len(rss) {
				masked[i] = true
			}
		}
	}
	for i := 1; i < len(peaks); i++ {
		for j := i; j > 0 && rss[peaks[j]] > rss[peaks[j-1]]; j-- {
			peaks[j], peaks[j-1] = peaks[j-1], peaks[j]
		}
	}
	sc.peaks = peaks[:0]
	return peaks
}

// OverheadModel captures the §6.2 probing-overhead accounting (Fig. 18d).
type OverheadModel struct {
	Num Numerology
}

// NRTrainingTime returns the air time of a traditional 5G NR beam
// refinement for an n-antenna array using the best known (logarithmic)
// scanning method: 2·log2(n) SSB probes of 0.5 ms each — 3 ms at 8
// antennas, 6 ms at 64.
func (o OverheadModel) NRTrainingTime(nAntennas int) float64 {
	if nAntennas < 2 {
		return 0
	}
	steps := 2 * math.Log2(float64(nAntennas))
	return steps * o.Num.SSBDuration()
}

// ExhaustiveTrainingTime returns the air time of a full codebook sweep.
func (o OverheadModel) ExhaustiveTrainingTime(numBeams int) float64 {
	return float64(numBeams) * o.Num.SSBDuration()
}

// MaintenanceProbes returns the number of CSI-RS probes one mmReliable
// refinement round needs for a K-beam multi-beam: 2(K−1) constructive-
// combining probes plus one motion-disambiguation probe (§4.2) — 3 probes
// for 2 beams, 5 for 3 beams, independent of array size.
func (o OverheadModel) MaintenanceProbes(kBeams int) int {
	if kBeams < 2 {
		return 1
	}
	return 2*(kBeams-1) + 1
}

// MaintenanceTime returns the air time of one mmReliable refinement round
// for a K-beam multi-beam: ≈0.4 ms for 2 beams, ≈0.6 ms for 3 (Fig. 18d).
func (o OverheadModel) MaintenanceTime(kBeams int) float64 {
	return float64(o.MaintenanceProbes(kBeams)) * o.Num.CSIRSDuration()
}
