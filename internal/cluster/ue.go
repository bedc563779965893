package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"mmreliable/internal/antenna"
	"mmreliable/internal/channel"
	"mmreliable/internal/cmx"
	"mmreliable/internal/env"
	"mmreliable/internal/events"
	"mmreliable/internal/link"
	"mmreliable/internal/motion"
	"mmreliable/internal/nr"
	"mmreliable/internal/seeds"
	"mmreliable/internal/sim"
	"mmreliable/internal/station"
)

// UEConfig describes one UE joining the cluster.
type UEConfig struct {
	// Pos is the UE's (static) position in the deployment environment. The
	// cluster layer models nomadic users — parked at a position for the
	// session — because the handover story here is blockage-driven, not
	// mobility-driven; the per-pair facing toward each cell stands in for a
	// quasi-omni terminal panel.
	Pos env.Vec2
	// Motion, when non-nil, makes the UE mobile: the trace supplies the
	// position over the session (its facing is ignored — each pair's
	// scenario re-faces the panel toward its cell, the same quasi-omni
	// convention as the static case). Pos is then unused.
	Motion motion.Trace
	// Blockage holds per-cell blockage schedules (index = cell, nil = that
	// link is never blocked). A blocker crossing the UE's serving link
	// shadows only that cell's paths — the geometry that makes a second
	// cell worth having.
	Blockage []events.Schedule
	// AttachAt is the absolute time the UE arrives (0 = at start);
	// admission happens at the first frame boundary ≥ AttachAt.
	AttachAt float64
	// DetachAt, when positive, is when the UE leaves; its metrics freeze at
	// the first frame boundary ≥ DetachAt.
	DetachAt float64
}

// ue is the coordinator's per-UE state: one scenario, monitor sounder, and
// (lazily) one station session per cell, plus the handover FSM and the
// cluster-level meters.
type ue struct {
	id  int
	cfg UEConfig

	// Per-cell radio state, index = cell.
	scen    []*sim.Scenario  // private (UE,cell) world: shared env, cell pose, pair blockage/fading
	sess    []int            // station session id at that cell, −1 if never attached
	monSnd  []*nr.Sounder    // monitor sounders (lazily built)
	monMod  []*channel.Model // monitor channel models (Reuse, lazily built)
	monBeam []cmx.Vector     // wide probe beams (lazily built, retained)
	monAoD  []float64        // AoD each wide beam was steered to (re-steer key)
	monCSI  cmx.Vector       // probe CSI scratch, shared across cells
	monEst  []float64        // monitor SNR estimates (narrow-beam-equivalent dB)
	monSeen []bool

	// Monitor row cache (incremental engine only): the pair's last noiseless
	// planar batch row and the inputs it was computed from. A batch row is a
	// pure function of (model content, beam weights, subcarrier offsets); the
	// model pointer and offsets are fixed per pair, so while the model's
	// content stamp and the beam's identity are unchanged, the planar eval
	// would reproduce the row bit for bit and the pair can replay the cached
	// row through its (private-RNG) sounder instead of re-registering with
	// the batch.
	monRowRe    [][]float64
	monRowIm    [][]float64
	monRowStamp []uint64
	monRowBeam  []*complex128
	monRowOK    []bool

	// Lifecycle. detachNow is a live detach (DetachUE) waiting for the next
	// boundary at which the UE is attached; deferred marks a UE whose
	// admission was tried and found every cell full.
	attached        bool
	done            bool
	detachNow       bool
	deferred        bool
	effectiveAttach float64

	// Handover FSM.
	serving, standby int // cell indices, −1 = none
	ttt              int
	lastSwapFrame    int
	prevServing      int // cell served before the last swap (ping-pong detection)
	handovers        int
	pingPongs        int

	// Cluster-level metrics: the serving leg alone (what a handover-only
	// deployment delivers) and the per-slot selection-diversity combination
	// of both live legs (the macro-diversity bound).
	meter    *link.Meter
	divMeter *link.Meter
}

// AddUE registers a UE with the cluster. Must be called before the frame
// that admits it; safe any time between frames. Returns the UE id.
func (cl *Cluster) AddUE(cfg UEConfig) (int, error) {
	if cfg.DetachAt > 0 && cfg.DetachAt <= cfg.AttachAt {
		return 0, fmt.Errorf("cluster: DetachAt %g ≤ AttachAt %g", cfg.DetachAt, cfg.AttachAt)
	}
	if len(cfg.Blockage) > len(cl.cells) {
		return 0, fmt.Errorf("cluster: %d blockage schedules for %d cells", len(cfg.Blockage), len(cl.cells))
	}
	id := cl.nextID
	cl.nextID++
	n := len(cl.cells)
	u := &ue{
		id:          id,
		cfg:         cfg,
		scen:        make([]*sim.Scenario, n),
		sess:        make([]int, n),
		monSnd:      make([]*nr.Sounder, n),
		monMod:      make([]*channel.Model, n),
		monBeam:     make([]cmx.Vector, n),
		monAoD:      make([]float64, n),
		monEst:      make([]float64, n),
		monSeen:     make([]bool, n),
		monRowRe:    make([][]float64, n),
		monRowIm:    make([][]float64, n),
		monRowStamp: make([]uint64, n),
		monRowBeam:  make([]*complex128, n),
		monRowOK:    make([]bool, n),
		serving:     -1,
		standby:     -1,
		prevServing: -1, // no prior serving cell: a first swap is never a ping-pong
		meter:       link.NewMeter(),
		divMeter:    link.NewMeter(),
	}
	for c := range u.sess {
		u.sess[c] = -1
	}
	for c := range cl.cells {
		u.scen[c] = cl.pairScenario(u, c)
		if err := u.scen[c].Validate(); err != nil {
			return 0, err
		}
	}
	cl.ues = append(cl.ues, u)
	return id, nil
}

// pairScenario builds the private (UE, cell) world: the shared deployment
// environment seen from that cell's pose, with the UE's panel facing the
// cell (quasi-omni terminal turning toward whichever gNB it talks to), the
// pair's blockage schedule, and a pair-private fading stream derived from
// (Seed, labelFading, ue, cell) — collision-free under the shared
// determinism contract.
func (cl *Cluster) pairScenario(u *ue, c int) *sim.Scenario {
	pose := cl.dep.Cells[c]
	var blk events.Schedule
	if c < len(u.cfg.Blockage) {
		blk = u.cfg.Blockage[c]
	}
	fadeSeed := seeds.Mix(cl.cfg.Seed, labelFading, int64(u.id), int64(c))
	var fading *sim.Fading
	if !cl.cfg.DisableFading {
		fading = sim.NewFading(sim.DefaultFadingSigmaDB, sim.DefaultFadingCoherence,
			rand.New(rand.NewSource(fadeSeed)))
	}
	var trace motion.Trace
	if u.cfg.Motion != nil {
		trace = faceCell{inner: u.cfg.Motion, cell: pose.Pos}
	} else {
		trace = motion.Static{Pose: env.Pose{
			Pos:    u.cfg.Pos,
			Facing: env.FacingFrom(u.cfg.Pos, pose.Pos),
		}}
	}
	return &sim.Scenario{
		Env:      cl.dep.Env,
		GNB:      pose,
		UE:       trace,
		Blockage: blk,
		Duration: 3600, // cluster runs are bounded by Run(duration), not the scenario
		Num:      cl.num,
		TxArray:  antenna.NewULA(cl.cfg.ArrayElems, cl.dep.Env.Band.CarrierHz),
		MaxPaths: 3,
		Fading:   fading,
	}
}

// faceCell adapts a positional trace to one (UE, cell) pair: positions come
// from the inner trace, facing always points at the pair's cell — the same
// quasi-omni panel convention the static case uses.
type faceCell struct {
	inner motion.Trace
	cell  env.Vec2
}

// At implements motion.Trace.
func (f faceCell) At(t float64) env.Pose {
	p := f.inner.At(t)
	p.Facing = env.FacingFrom(p.Pos, f.cell)
	return p
}

// attachLeg opens a station session for (u, cell c) at time t0. The
// scenario is the pair's persistent world: ownership transfers to the
// station session (its worker steps it inside frames; the coordinator only
// ever touches it between frames, which is sequential with the workers).
func (u *ue) attachLeg(cl *Cluster, c int, t0 float64) error {
	id, err := cl.cells[c].st.Attach(station.SessionConfig{
		Scenario: u.scen[c],
		Budget:   cl.dep.Budget,
		Seed:     seeds.Mix(cl.cfg.Seed, labelSession, int64(u.id), int64(c)),
		AttachAt: t0,
	})
	if err != nil {
		return err
	}
	u.sess[c] = id
	cl.cells[c].queued++
	return nil
}

// detachLeg tears down the UE's session at cell c (standby retargeting,
// completed handovers). The pair's scenario stays with the UE and keeps
// serving monitor probes; a later re-attach opens a fresh session (a new
// manager that trains from scratch, as a real re-attach would).
func (u *ue) detachLeg(cl *Cluster, c int) {
	if id := u.sess[c]; id >= 0 && cl.cells[c].st.SessionActive(id) {
		cl.cells[c].st.DetachNow(id)
	}
	u.sess[c] = -1
}

// ensureMonitor lazily builds the (u, c) pair's monitor sounder, channel
// model, and shared CSI scratch. Idempotent; every monitor path calls it
// before touching the pair.
func (u *ue) ensureMonitor(cl *Cluster, c int) {
	if u.monSnd[c] != nil {
		return
	}
	seed := seeds.Mix(cl.cfg.Seed, labelMonitor, int64(u.id), int64(c))
	snd, err := nr.NewSounder(cl.num, cl.dep.Budget.BandwidthHz, monitorNumSC,
		cl.dep.Budget.NoiseToTxAmpRatio(), nr.DefaultImpairments(),
		rand.New(rand.NewSource(seed)))
	if err != nil {
		panic(fmt.Sprintf("cluster: monitor sounder: %v", err))
	}
	u.monSnd[c] = snd
	u.monMod[c] = &channel.Model{Reuse: true}
	if u.monCSI == nil {
		u.monCSI = make(cmx.Vector, monitorNumSC)
	}
}

// refreshMonitorModel advances the pair's channel model to time t and
// returns it, or nil after recording a −Inf estimate when the pair has no
// geometric paths (fully shadowed — no probe is fired, matching a sounder
// that hears nothing). Also keeps the pair's wide beam pointed at the
// strongest geometric path: static UEs keep their angles, only losses move
// (blockage/fading), so the beam is built once and retained; a mobile UE
// re-steers only when the strongest AoD has drifted past the re-steer
// threshold (the wide beam covers the sector, so small drift costs nothing).
// Re-steering replaces the beam vector, which also invalidates the pair's
// incremental monitor-row cache through its beam-identity key.
func (u *ue) refreshMonitorModel(cl *Cluster, c int, t float64) *channel.Model {
	m := u.monMod[c]
	u.scen[c].ChannelInto(t, m)
	if len(m.Paths) == 0 {
		u.monEst[c] = math.Inf(-1)
		u.monSeen[c] = true
		return nil
	}
	aod := m.Paths[m.StrongestPath()].Path.AoD
	if u.monBeam[c] == nil || math.Abs(wrapAngle(aod-u.monAoD[c])) > monitorResteerRad {
		u.monBeam[c] = antenna.WideBeam(m.Tx, aod, monitorElems)
		u.monAoD[c] = aod
	}
	return m
}

// wrapAngle maps an angle difference into (−π, π].
func wrapAngle(d float64) float64 {
	d = math.Mod(d, 2*math.Pi)
	if d > math.Pi {
		d -= 2 * math.Pi
	}
	if d < -math.Pi {
		d += 2 * math.Pi
	}
	return d
}

// monRowFresh reports whether the pair's cached planar row is still the row
// the batch would compute: same model content (stamp) and same wide beam
// (built once and retained, so head identity suffices).
func (u *ue) monRowFresh(c int, m *channel.Model) bool {
	return u.monRowOK[c] && u.monRowStamp[c] == m.Stamp() && u.monRowBeam[c] == &u.monBeam[c][0]
}

// monRowStore snapshots the pair's planar row (the batch's slab is released
// after the round) together with the inputs it was computed from.
func (u *ue) monRowStore(c int, m *channel.Model, re, im []float64) {
	if cap(u.monRowRe[c]) < len(re) {
		u.monRowRe[c] = make([]float64, len(re))
		u.monRowIm[c] = make([]float64, len(im))
	}
	u.monRowRe[c] = u.monRowRe[c][:len(re)]
	u.monRowIm[c] = u.monRowIm[c][:len(im)]
	copy(u.monRowRe[c], re)
	copy(u.monRowIm[c], im)
	u.monRowStamp[c] = m.Stamp()
	u.monRowBeam[c] = &u.monBeam[c][0]
	u.monRowOK[c] = true
}

// foldMonitorEstimate converts a probe's CSI into the narrow-beam-equivalent
// SNR estimate and folds it into the pair's monitor EWMA.
func (u *ue) foldMonitorEstimate(cl *Cluster, c int, csi cmx.Vector) float64 {
	cmx.Split(csi, cl.monRe, cl.monIm)
	txLin, noiseLin := cl.dep.Budget.SNRTerms()
	snr := link.WidebandSNRdB(cl.monRe, cl.monIm, txLin, noiseLin) + cl.monGainDB
	if !u.monSeen[c] {
		u.monEst[c] = snr
		u.monSeen[c] = true
	} else {
		u.monEst[c] += monitorAlpha * (snr - u.monEst[c])
	}
	return u.monEst[c]
}

// monitorProbe fires one wide-beam probe on the (u, c) pair at time t and
// folds the result into the pair's monitor EWMA. Returns the narrow-beam-
// equivalent SNR estimate in dB. Steady-state zero-alloc: the sounder,
// model, beam, and CSI scratch are all built once and retained. Admission
// probing uses this single-pair form; monitor rounds batch the wideband
// evaluation across every pair instead (Cluster.monitorRound).
func (u *ue) monitorProbe(cl *Cluster, c int, t float64) float64 {
	u.ensureMonitor(cl, c)
	m := u.refreshMonitorModel(cl, c, t)
	if m == nil {
		return u.monEst[c]
	}
	csi := u.monSnd[c].ProbeInto(m, u.monBeam[c], u.monCSI)
	return u.foldMonitorEstimate(cl, c, csi)
}

// Monitor tuning constants.
const (
	// monitorNumSC is the monitor sounding width: the manager's CSI-RS
	// width, so estimates are comparable.
	monitorNumSC = nr.NumSC
	// monitorElems is the number of active array elements of the wide
	// monitoring beam: fewer elements ⇒ wider beam ⇒ one probe covers the
	// whole sector without per-cell training, at 10·log10(N/active) dB less
	// gain (compensated in the reported estimate).
	monitorElems = 2
	// monitorAlpha is the monitor EWMA constant: rounds are 100 ms apart,
	// so a heavier weight on the newest probe keeps the estimate current.
	monitorAlpha = 0.5
	// monitorResteerRad is how far the strongest path's AoD may drift from
	// the wide beam's steering angle before the beam is rebuilt (≈ 5.7°,
	// well inside the 2-element beam's width).
	monitorResteerRad = 0.1
)
