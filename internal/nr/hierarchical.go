package nr

import (
	"fmt"
	"math"
	"sort"

	"mmreliable/internal/antenna"
	"mmreliable/internal/channel"
	"mmreliable/internal/cmx"
	"mmreliable/internal/dsp"
)

// Hierarchical beam training: instead of sweeping every narrow beam, probe
// a few wide (reduced-aperture) beams, descend into the strongest sectors
// with progressively narrower beams, and finish on full-aperture beams.
// This is the logarithmic-time alternative (Hassanieh et al. style) the
// paper cites for both its reactive baseline and as a faster front end to
// mmReliable's establishment. To find multiple paths, the search keeps the
// top-K sectors alive at every level.
//
// For an N-element array with branching factor B, the search probes
// B·K·ceil(log_B(#narrow beams)) beams instead of all #narrow beams.

// The hierarchical search's shape: branching 4 with a final resolution of
// 16 sectors over ±ScanRangeDeg — about the half-power beamwidth of an
// 8-element array. Descending below the array's resolution is
// counter-productive: a path's energy then spans several final sectors and
// its neighbors crowd out genuinely distinct paths.
const (
	// hierBranch is the number of child sectors probed per parent.
	hierBranch = 4
	// hierNarrowBeams is the resolution of the final level (the equivalent
	// exhaustive codebook size).
	hierNarrowBeams = 16
)

// HierConfig tunes the hierarchical sweep.
type HierConfig struct {
	// Keep is how many sectors survive each level (≥1); ≥2 is needed to
	// find multiple multipath directions.
	Keep int
	// DynRangeDB discards final beams weaker than this below the best.
	DynRangeDB float64
}

// DefaultHierConfig keeps two survivors per level and a 10 dB dynamic
// range.
func DefaultHierConfig() HierConfig {
	return HierConfig{Keep: 2, DynRangeDB: 10}
}

// Validate checks the configuration.
func (c HierConfig) Validate() error {
	if c.Keep < 1 {
		return fmt.Errorf("nr: hierarchical Keep %d < 1", c.Keep)
	}
	return nil
}

// sector is a candidate angular interval during the descent.
type sector struct {
	lo, hi float64
	rss    float64
}

// HierSweep runs the hierarchical search and returns the found beam angles
// (strongest first), their RSS, the probe count, and the air time consumed
// (one SSB per probe, as in the exhaustive sweep).
type HierResult struct {
	Angles   []float64
	RSS      []float64
	NumProbe int
	AirTime  float64
}

// HierSweep performs hierarchical beam training over the channel m.
func HierSweep(s *Sounder, m *channel.Model, u *antenna.ULA, cfg HierConfig) (HierResult, error) {
	if err := cfg.Validate(); err != nil {
		return HierResult{}, err
	}
	res := HierResult{}
	depth := hierDepth()
	scan := dsp.Rad(ScanRangeDeg)
	live := []sector{{lo: -scan, hi: scan}}
	// One CSI buffer serves every probe of the descent: only the scalar RSS
	// of each probe survives.
	csi := make(cmx.Vector, s.NumSC)
	for level := 1; level <= depth; level++ {
		// Aperture grows with depth: wide beams early, full aperture last.
		frac := float64(level) / float64(depth)
		active := int(math.Max(2, math.Round(frac*float64(u.N))))
		var next []sector
		for _, sec := range live {
			step := (sec.hi - sec.lo) / float64(hierBranch)
			for b := 0; b < hierBranch; b++ {
				lo := sec.lo + float64(b)*step
				hi := lo + step
				center := (lo + hi) / 2
				w := antenna.WideBeam(u, center, active)
				rss := RSS(s.ProbeInto(m, w, csi))
				res.NumProbe++
				next = append(next, sector{lo: lo, hi: hi, rss: rss})
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i].rss > next[j].rss })
		// Keep the top sectors, but never two ADJACENT ones: a path on a
		// sector boundary leaks into both neighbors and would otherwise
		// hog every survivor slot, dropping genuinely distinct paths.
		var kept []sector
		for _, cand := range next {
			adjacent := false
			for _, k := range kept {
				if cand.lo <= k.hi+1e-12 && k.lo <= cand.hi+1e-12 {
					adjacent = true
					break
				}
			}
			if !adjacent {
				kept = append(kept, cand)
				if len(kept) == cfg.Keep {
					break
				}
			}
		}
		if len(kept) == 0 && len(next) > 0 {
			kept = next[:1]
		}
		live = kept
	}
	res.AirTime = float64(res.NumProbe) * s.Num.SSBDuration()
	if len(live) == 0 {
		return res, nil
	}
	floor := live[0].rss * math.Pow(10, -cfg.DynRangeDB/10)
	for _, sec := range live {
		if sec.rss < floor {
			continue
		}
		res.Angles = append(res.Angles, (sec.lo+sec.hi)/2)
		res.RSS = append(res.RSS, sec.rss)
	}
	return res, nil
}

// hierDepth is the number of descent levels: the least depth with
// hierBranch^depth ≥ hierNarrowBeams.
func hierDepth() int {
	depth := int(math.Ceil(math.Log(float64(hierNarrowBeams)) / math.Log(float64(hierBranch))))
	if depth < 1 {
		depth = 1
	}
	return depth
}

// HierProbeCount returns the number of probes a hierarchical sweep issues
// for the given configuration (for overhead accounting without running it).
func HierProbeCount(cfg HierConfig) int {
	// Level 1 probes hierBranch sectors from the single root; afterwards
	// each of the Keep survivors spawns hierBranch probes.
	return hierBranch + (hierDepth()-1)*cfg.Keep*hierBranch
}
