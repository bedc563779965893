package serve

import (
	"encoding/json"
	"fmt"
	"math"
)

// SnapshotFormat / SnapshotVersion identify the snapshot document. Version
// bumps whenever the document layout, the replay semantics, OR the digest
// fold change — a restore refuses any other version rather than replaying
// into a different simulation or checking against a different fold.
// Version 3 is the word-wise core.Digest fold; version 4 is the planar-only
// wideband path (admission probes evaluate the channel on the same planar
// kernels as monitor rounds, which moves the state digest by ulps); version
// 5 is the one wideband-SNR reduction (the cluster monitor and the manager's
// beam-set selection reduce on the planar product-form kernel) with the
// span/(n−1) subcarrier phasor step, which moves the digest by ulps again;
// version 6 is the split-Horner super-resolution search with the shared
// diagonal and the stepped prefactor, whose fitted amplitudes move by ulps;
// version 7 is the smaller config, whose fixed training and tracking setup
// (codebook, subcarriers, thresholds, monitor aperture) left the document.
const (
	SnapshotFormat  = "mmserved-snapshot"
	SnapshotVersion = 7
)

// snapshotFile is the versioned snapshot document. It is event-sourced:
// the deterministic inputs (metro config + script), the frame count, and
// the journal of externally injected commands — NOT a struct dump of the
// simulation's floats. A restore rebuilds the metro from the config and
// silently replays the frames, re-applying script and journal entries at
// their recorded boundaries; the determinism contract (byte-identical
// evolution at any worker count) guarantees the replayed state matches the
// original bit for bit. The digest, per-site RNG draw counts, and
// arrival-process state are integrity checks: the restore verifies all
// three after replay and refuses to serve on any mismatch.
type snapshotFile struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	// Frame is the boundary the snapshot was taken at: script and journal
	// entries with Frame == this value were already applied, the frame
	// itself has not run.
	Frame int `json:"frame"`
	// Metro + Script are the replay identity (serve.Config's serialized
	// part).
	Config Config `json:"config"`
	// Journal is every externally injected command, in application order.
	Journal []Command `json:"journal,omitempty"`
	// Digest is the metro state digest (hex) at the snapshot boundary.
	Digest string `json:"digest"`
	// SiteDraws is every site's churn-RNG consumed-draw count — the RNG
	// stream positions (seed is derivable: seeds.Mix(Seed, 996, site)).
	SiteDraws []uint64 `json:"site_draws"`
	// NextArrivalBits is every site's next churn-arrival time as IEEE-754
	// bits (exact round trip).
	NextArrivalBits []uint64 `json:"next_arrival_bits"`
}

// snapshotNow builds the snapshot document at the current boundary.
// Loop-owned (or post-Run).
func (s *Server) snapshotNow() ([]byte, error) {
	sf := snapshotFile{
		Format:    SnapshotFormat,
		Version:   SnapshotVersion,
		Frame:     s.m.Frame(),
		Config:    Config{Metro: s.cfg.Metro, Script: s.cfg.Script},
		Journal:   s.journal,
		Digest:    fmt.Sprintf("%016x", s.m.DigestSum()),
		SiteDraws: s.m.SiteDraws(),
	}
	arr := s.m.SiteNextArrivals()
	sf.NextArrivalBits = make([]uint64, len(arr))
	for i, a := range arr {
		sf.NextArrivalBits[i] = math.Float64bits(a)
	}
	return json.MarshalIndent(sf, "", " ")
}

// Runtime carries the runtime knobs a restore may override — they pace
// and bound the loop without entering the replay identity. Workers > 0
// replaces the snapshot's worker count (determinism-neutral; the shard
// partition is part of the config and is NOT overridable).
type Runtime struct {
	TimeScale   float64
	StatusEvery int
	MaxFrames   int
	Workers     int
}

// Restore rebuilds a daemon from a snapshot document: fresh metro from
// the recorded config, then a silent replay of every frame up to the
// snapshot boundary with script and journal entries re-applied at their
// recorded frames. After replay the metro digest, per-site RNG draw
// counts, and arrival-process state must all match the recorded values —
// any mismatch aborts (a corrupted or hand-edited snapshot must not serve).
// The returned server continues exactly where the snapshotted daemon
// stopped; replay cost is O(frames), the price of snapshots that stay
// small and implementation-independent (see DESIGN.md).
func Restore(data []byte, rt Runtime) (*Server, error) {
	var sf snapshotFile
	if err := json.Unmarshal(data, &sf); err != nil {
		return nil, fmt.Errorf("serve: bad snapshot: %w", err)
	}
	if sf.Format != SnapshotFormat {
		return nil, fmt.Errorf("serve: not a snapshot (format %q)", sf.Format)
	}
	if sf.Version != SnapshotVersion {
		return nil, fmt.Errorf("serve: snapshot version %d, want %d", sf.Version, SnapshotVersion)
	}
	if sf.Frame < 0 {
		return nil, fmt.Errorf("serve: negative snapshot frame %d", sf.Frame)
	}
	cfg := Config{
		Metro:       sf.Config.Metro,
		Script:      sf.Config.Script,
		TimeScale:   rt.TimeScale,
		StatusEvery: rt.StatusEvery,
		MaxFrames:   rt.MaxFrames,
	}
	if rt.Workers > 0 {
		cfg.Metro.Workers = rt.Workers
	}
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}

	// Silent replay to the snapshot boundary. Journal entries must be
	// frame-monotonic and inside the replayed range.
	jIdx := 0
	for {
		f := s.m.Frame()
		s.applyScriptAt(f)
		for jIdx < len(sf.Journal) && sf.Journal[jIdx].Frame <= f {
			c := sf.Journal[jIdx]
			jIdx++
			if c.Frame < f {
				return nil, fmt.Errorf("serve: journal entry %d out of order (frame %d at boundary %d)", jIdx-1, c.Frame, f)
			}
			if _, err := s.applyCommand(c); err != nil {
				// Journaled commands succeeded when first applied; a replay
				// failure means the snapshot lies about its own history.
				return nil, fmt.Errorf("serve: replay diverged at frame %d (%s): %w", f, c.Op, err)
			}
			s.journal = append(s.journal, c)
		}
		if f >= sf.Frame {
			break
		}
		s.m.AdvanceFrame()
	}
	if jIdx != len(sf.Journal) {
		return nil, fmt.Errorf("serve: %d journal entries beyond snapshot frame %d", len(sf.Journal)-jIdx, sf.Frame)
	}

	// Integrity: the replayed state must match the recorded fingerprints.
	if got := fmt.Sprintf("%016x", s.m.DigestSum()); got != sf.Digest {
		return nil, fmt.Errorf("serve: state digest mismatch after replay: %s != %s (snapshot corrupted or config drifted)", got, sf.Digest)
	}
	draws := s.m.SiteDraws()
	if len(draws) != len(sf.SiteDraws) {
		return nil, fmt.Errorf("serve: %d sites replayed, snapshot has %d", len(draws), len(sf.SiteDraws))
	}
	for i, d := range draws {
		if d != sf.SiteDraws[i] {
			return nil, fmt.Errorf("serve: site %d churn stream consumed %d draws on replay, snapshot recorded %d", i, d, sf.SiteDraws[i])
		}
	}
	arr := s.m.SiteNextArrivals()
	if len(arr) != len(sf.NextArrivalBits) {
		return nil, fmt.Errorf("serve: %d sites replayed, snapshot has %d arrival entries", len(arr), len(sf.NextArrivalBits))
	}
	for i, a := range arr {
		if math.Float64bits(a) != sf.NextArrivalBits[i] {
			return nil, fmt.Errorf("serve: site %d arrival state diverged on replay (%v != %v)",
				i, a, math.Float64frombits(sf.NextArrivalBits[i]))
		}
	}
	return s, nil
}
