// Package manager ties mmReliable's pieces into the Fig. 9 state machine:
// initial beam training establishes the viable path angles; two-probe
// estimation builds the constructive multi-beam; a maintenance loop driven
// by CSI-RS probes runs super-resolution per-beam tracking, reallocates
// power away from blocked beams, re-aligns drifting beams with one
// ambiguity probe each, and falls back to full retraining only when the
// link is beyond local repair.
//
// The manager implements sim.Scheme: the surrounding runner hands it the
// true channel once per slot, and it only observes that channel through its
// own sounder probes (magnitude-corrupting CFO/SFO included), spending
// training slots for every sounding it issues.
package manager

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"mmreliable/internal/antenna"
	"mmreliable/internal/channel"
	"mmreliable/internal/cmx"
	"mmreliable/internal/core/multibeam"
	"mmreliable/internal/core/probe"
	"mmreliable/internal/core/superres"
	"mmreliable/internal/core/track"
	"mmreliable/internal/dsp"
	"mmreliable/internal/incr"
	"mmreliable/internal/link"
	"mmreliable/internal/nr"
	"mmreliable/internal/phasedarray"
	"mmreliable/internal/scratch"
	"mmreliable/internal/sim"
)

// Config tunes the manager.
type Config struct {
	// MaxBeams is the maximum multi-beam order (paper: 3 beams reach 92%
	// of the oracle).
	MaxBeams int
	// MaintainPeriod is the CSI-RS maintenance cadence in seconds
	// (default 20 ms, one SSB period).
	MaintainPeriod float64
	// CCRefreshPeriod is the cadence of the lightweight constructive-
	// combining phase refresh (default 1 ms). One CSI-RS probe's CIR
	// yields every beam's complex amplitude with a COMMON CFO phase, so
	// the relative per-beam phases are observable from a single probe —
	// fast enough to follow the per-path phase drift of a moving user,
	// which rotates far too quickly for the 20 ms maintenance loop.
	CCRefreshPeriod float64
	// HierarchicalTraining switches the initial/returning beam training
	// from the exhaustive SSB sweep to the logarithmic hierarchical search
	// (wide beams descending into the strongest sectors) — roughly 3×
	// fewer probes at slightly coarser initial angles, which the §4.2
	// refinement loop then polishes.
	HierarchicalTraining bool
	// ProactiveTracking enables the §4.2 mobility loop. Disabling it (the
	// paper's "mmReliable w/o tracking" ablation, Fig. 18a) keeps blockage
	// reallocation but never re-aligns angles.
	ProactiveTracking bool
	// ConstructiveCombining enables per-beam phase/amplitude optimization.
	// Disabling it (the Fig. 17c "tracking w/o CC" ablation) uses equal
	// amplitude, zero phase lobes.
	ConstructiveCombining bool
}

// Training and maintenance constants; the SSB training setup itself
// (codebook, scan range, subcarriers, SSB period) is nr's.
const (
	// dynRangeDB is the peak-selection dynamic range during training:
	// 10 dB keeps the paper's 1–10 dB reflectors while rejecting the
	// −12.8 dB sidelobes of an 8-element scanning beam.
	dynRangeDB = 10
	// minSepIdx is the minimum codebook separation between selected
	// peaks: the mask radius must cover the scanning beam's main lobe
	// (±11.25° at the 3.75° codebook step for an 8-element array).
	minSepIdx = 4
	// minRefineDeg suppresses re-alignment below this deviation.
	minRefineDeg = 0.75
	// retrainBackoff is the wait (seconds) before re-attempting a failed
	// training.
	retrainBackoff = 50e-3
	// selectionTolDB is the SNR sacrifice accepted to keep an extra lobe
	// during beam-set selection: more lobes mean more blockage resilience
	// (the paper's reliability-first design), so the largest beam set
	// within this many dB of the best-measured set wins.
	selectionTolDB = 2.0
)

// Outage-reaction confirmation windows (slots): an emergency maintenance
// round fires after a few bad slots; a full retrain only after the outage
// has outlasted a typical fading dip (retraining costs tens of ms, so
// waiting out a short fade is cheaper than retraining into it).
const (
	emergencyConfirmSlots = 4
	retrainConfirmSlots   = 60
)

// DefaultConfig returns the paper-matched configuration.
func DefaultConfig() Config {
	return Config{
		MaxBeams:              3,
		MaintainPeriod:        20e-3,
		CCRefreshPeriod:       1e-3,
		ProactiveTracking:     true,
		ConstructiveCombining: true,
	}
}

// Validate reports a configuration New refuses: MaxBeams outside
// [1, nr.CodebookSize] (a sweep cannot select more peaks than it has
// beams) or a non-positive MaintainPeriod.
func (c Config) Validate() error {
	if c.MaxBeams < 1 || c.MaxBeams > nr.CodebookSize {
		return fmt.Errorf("manager: MaxBeams %d outside [1, %d]", c.MaxBeams, nr.CodebookSize)
	}
	if !(c.MaintainPeriod > 0) {
		return fmt.Errorf("manager: MaintainPeriod %g is not positive", c.MaintainPeriod)
	}
	return nil
}

// Manager is the mmReliable beam manager for one gNB-UE link.
type Manager struct {
	name    string
	cfg     Config
	u       *antenna.ULA
	budget  link.Budget
	num     nr.Numerology
	sounder *nr.Sounder
	fe      *phasedarray.FrontEnd
	cb      *antenna.Codebook
	offsets []float64

	// Hot-path scratch: wbRe/wbIm hold the planar wideband response snr()
	// evaluates every slot (txLin/noiseLin are the budget's linear terms,
	// hoisted at New so the slot loop skips two math.Pow per evaluation);
	// mbScratch/ueScratch hold one lobe's matched beam during multi-beam
	// synthesis. All are internal to a single call.
	wbRe, wbIm      []float64
	txLin, noiseLin float64
	mbScratch       cmx.Vector
	ueScratch       cmx.Vector
	// Maintenance-tick scratch (maintain/ccRefresh run with zero
	// allocations in steady state): csiBuf/cirBuf hold the probe CSI and
	// its impulse response, sbBuf one recovery probe's single beam, stsBuf
	// the tracker statuses, degBuf the delay-degeneracy flags. ws supplies
	// everything the super-resolution fit needs; it defaults to a private
	// workspace and is replaced by the per-worker arena via UseWorkspace
	// under experiments.ParallelTrials.
	csiBuf cmx.Vector
	cirBuf cmx.Vector
	sbBuf  cmx.Vector
	stsBuf []track.Status
	degBuf []bool
	ws     *scratch.Workspace
	// Refinement-round scratch (refine also runs allocation-free): csi2Buf
	// is the second candidate probe's landing, devIdx/devVal the deviated
	// beam list, estBuf the CC re-estimate, lobesBuf/beamsBuf the lobe
	// lists applyWeights and BeamsInto rebuild each round. bp is the
	// reusable Prober binding (rebound to the live channel per round).
	csi2Buf  cmx.Vector
	pwrBuf   []float64
	devIdx   []int
	devVal   []float64
	estBuf   probe.Result
	lobesBuf []multibeam.Beam
	beamsBuf []multibeam.Beam
	bp       boundProber
	// wSpare is applyWeights' double buffer: the composed weight vector
	// and the spare rotate, so steady-state weight updates do not allocate.
	wSpare cmx.Vector
	// Establishment scratch: at metro scale full re-establishments are part
	// of the steady state (blockage-driven data outages retrain every few
	// hundred frames on marginal legs), so establish() also runs off
	// retained storage. swp backs the SSB sweep, angStore/delayStore/
	// relStore/rssStore the per-beam vectors (the manager's published
	// angles/relDelays/rssAnchor slices alias these stores), magsFlat +
	// magHeads the per-beam magnitude matrix, beamStore the live lobe list,
	// snrSel/selW/magSel/zeroIm the beam-set selection scratch (zeroIm is
	// the all-zero im row magnitude rows are reduced against), activeStore
	// the active flags. establishFn and the retry callbacks are prebound at
	// New so scheduling an operation never materializes a method value.
	swp            nr.SweepScratch
	angStore       []float64
	delayStore     []float64
	relStore       []float64
	rssStore       []float64
	magsFlat       []float64
	magHeads       [][]float64
	beamStore      []multibeam.Beam
	snrSel         []float64
	selW           cmx.Vector
	magSel         []float64
	zeroIm         []float64
	activeStore    []bool
	establishFn    func(t float64, m *channel.Model)
	retrySweepFn   func(t float64, m *channel.Model)
	retryEstFn     func(t float64, m *channel.Model)
	retryComposeFn func(t float64, m *channel.Model)

	// Beam state.
	angles    []float64 // per-beam steering angles (reference first)
	relDelays []float64 // per-beam ToF relative to the reference
	beams     []multibeam.Beam
	active    []bool // false = blocked, power reallocated away
	mags      [][]float64
	rssAnchor []float64 // single-beam RSS at last (re)alignment
	w         cmx.Vector
	tracker   *track.Tracker
	needAnch  bool

	// Directional-UE state (§4.4); nil/zero for a quasi-omni UE. The UE
	// forms its own multi-beam with one lobe per gNB beam (Fig. 12).
	// ueW is the composed UE beam (nil = quasi-omni): it aliases ueBuf,
	// which every composition rewrites, since the channel model copies the
	// beam it is bound to. ueCand holds refineUE's two candidate angle sets.
	ueArr    *antenna.ULA
	ueCB     *antenna.Codebook
	ueW      cmx.Vector
	ueBuf    cmx.Vector
	ueAngles []float64        // UE lobe angle per gNB beam
	ueAmps   []float64        // UE lobe amplitude per gNB beam (MRC weighting)
	ueLobes  []multibeam.Beam // lobe list scratch of each UE weight composition
	ueCand   []float64

	// Operation scheduling.
	trainRemaining int
	onTrainDone    func(t float64, m *channel.Model)
	nextMaintain   float64
	nextCCRefresh  float64
	emergencyTried bool
	badSlots       int     // consecutive below-threshold data slots
	trainDebt      float64 // fractional training slots owed by symbol-level probes
	// probeGrant arbitrates sounding opportunities (nil = self-scheduled:
	// every due opportunity fires). See grant.go.
	probeGrant ProbeGrant

	// Cached result of the last snr() fold, keyed on everything that feeds
	// it: the model (identity + content stamp, which a UE beam change moves)
	// and the front end's program counter (Switches — slice identity is NOT
	// sound, SetWeights double-buffers). Consulted only under the
	// incremental engine (incr.Enabled); with MMR_INCREMENTAL=off every slot
	// folds the full wideband response.
	snrModel *channel.Model
	snrStamp uint64
	snrFEVer int
	snrVal   float64
	snrValid bool
	// thrSNR/thrVal memoise the data slot's link.Throughput on its SNR
	// (the bandwidth is fixed), so a quiescent link skips the MCS lookup.
	thrSNR   float64
	thrVal   float64
	thrValid bool
	// ccUpd caches ccUpdatable, which every data slot consults: it depends
	// only on the beam count, the active flags and relDelays, so every site
	// that changes one of those clears ccUpdValid (establish, fullReset and
	// maintain's recovery, drop and all-blocked branches).
	ccUpd      int
	ccUpdValid bool

	// Stats.
	TrainingSlots int
	Retrains      int
	Refinements   int
	BlockageDrops int
	// BudgetDenials counts sounding opportunities the installed ProbeGrant
	// suppressed (always 0 under the default self-scheduled grant).
	BudgetDenials int
	// RetrainReasons counts full-retrain triggers by cause, for
	// diagnostics ("data-outage", "superres", "tracker", "all-blocked",
	// "compose", "initial", "sweep-empty", "estimate").
	RetrainReasons map[string]int
}

// New builds a manager. rng seeds the sounder's noise and impairments.
func New(name string, u *antenna.ULA, budget link.Budget, num nr.Numerology, cfg Config, rng *rand.Rand) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s, err := nr.NewSounder(num, budget.BandwidthHz, nr.NumSC, budget.NoiseToTxAmpRatio(), nr.DefaultImpairments(), rng)
	if err != nil {
		return nil, err
	}
	scan := dsp.Rad(nr.ScanRangeDeg)
	mgr := &Manager{
		name:    name,
		cfg:     cfg,
		u:       u,
		budget:  budget,
		num:     num,
		sounder: s,
		fe:      phasedarray.New(u, antenna.DefaultQuantizer()),
		cb:      antenna.DFTCodebook(u, nr.CodebookSize, -scan, scan),
		offsets: channel.SubcarrierOffsets(budget.BandwidthHz, nr.NumSC),
	}
	mgr.wbRe = make([]float64, nr.NumSC)
	mgr.wbIm = make([]float64, nr.NumSC)
	mgr.txLin, mgr.noiseLin = budget.SNRTerms()
	mgr.mbScratch = make(cmx.Vector, u.N)
	mgr.csiBuf = make(cmx.Vector, nr.NumSC)
	mgr.cirBuf = make(cmx.Vector, nr.NumSC)
	mgr.sbBuf = make(cmx.Vector, u.N)
	mgr.csi2Buf = make(cmx.Vector, nr.NumSC)
	mgr.pwrBuf = make([]float64, 0, cfg.MaxBeams)
	mgr.devIdx = make([]int, 0, cfg.MaxBeams)
	mgr.devVal = make([]float64, 0, cfg.MaxBeams)
	mgr.estBuf = probe.Result{
		Relative:     make([]probe.Estimate, 0, cfg.MaxBeams),
		PerBeamPower: make([]float64, 0, cfg.MaxBeams),
	}
	mgr.lobesBuf = make([]multibeam.Beam, 0, cfg.MaxBeams)
	mgr.beamsBuf = make([]multibeam.Beam, 0, cfg.MaxBeams)
	mgr.bp = boundProber{s: s}
	mgr.ws = scratch.New()
	mgr.angStore = make([]float64, 0, cfg.MaxBeams)
	mgr.delayStore = make([]float64, 0, cfg.MaxBeams)
	mgr.relStore = make([]float64, 0, cfg.MaxBeams)
	mgr.rssStore = make([]float64, 0, cfg.MaxBeams)
	mgr.magsFlat = make([]float64, cfg.MaxBeams*nr.NumSC)
	mgr.magHeads = make([][]float64, 0, cfg.MaxBeams)
	mgr.beamStore = make([]multibeam.Beam, 0, cfg.MaxBeams)
	mgr.snrSel = make([]float64, cfg.MaxBeams+1)
	mgr.selW = make(cmx.Vector, u.N)
	sel := make([]float64, 2*nr.NumSC)
	mgr.magSel, mgr.zeroIm = sel[:nr.NumSC:nr.NumSC], sel[nr.NumSC:]
	mgr.activeStore = make([]bool, 0, cfg.MaxBeams)
	mgr.establishFn = mgr.establish
	mgr.retrySweepFn = func(t float64, m *channel.Model) { mgr.retrainCause(t, "sweep-empty") }
	mgr.retryEstFn = func(t float64, m *channel.Model) { mgr.retrainCause(t, "estimate") }
	mgr.retryComposeFn = func(t float64, m *channel.Model) { mgr.retrainCause(t, "compose") }
	return mgr, nil
}

// UseWorkspace replaces the manager's private scratch workspace with a
// shared (typically per-worker) one. The manager only holds checkouts for
// the duration of one maintenance tick — it marks the workspace on entry
// and releases on exit — so one workspace can be shared by every manager
// owned by the same worker goroutine. Must not be called mid-tick.
func (g *Manager) UseWorkspace(ws *scratch.Workspace) {
	if ws != nil {
		g.ws = ws
	}
}

// Name implements sim.Scheme.
func (g *Manager) Name() string { return g.name }

// NumBeams returns the current multi-beam order (0 before establishment).
func (g *Manager) NumBeams() int { return len(g.beams) }

// ActiveWeightsView returns the live transmit weights without copying (nil
// before establishment). Read-only; do not retain across a weight reload.
// The station's SDMA stage reads co-scheduled beams through it without one
// clone per session per slot.
func (g *Manager) ActiveWeightsView() cmx.Vector { return g.fe.ActiveView() }

// Offsets returns the subcarrier offset grid the manager evaluates wideband
// SNR on. The slice is the manager's own grid: treat as read-only.
func (g *Manager) Offsets() []float64 { return g.offsets }

// Reset discards all beam state so the next Step performs a full initial
// training — used by a handover controller when this manager's gNB becomes
// the serving cell after time away.
func (g *Manager) Reset() {
	g.w = nil
	g.fe = phasedarray.New(g.u, antenna.DefaultQuantizer())
	g.fullReset()
	g.trainRemaining = 0
	g.onTrainDone = nil
	g.trainDebt = 0
	g.badSlots = 0
	g.emergencyTried = false
}

// Step implements sim.Scheme.
func (g *Manager) Step(t float64, m *channel.Model) sim.Slot {
	g.bindUE(m)
	// Pending multi-slot training operation?
	if g.trainRemaining > 0 {
		g.trainRemaining--
		g.TrainingSlots++
		if g.trainRemaining == 0 && g.onTrainDone != nil {
			done := g.onTrainDone
			g.onTrainDone = nil
			done(t, m)
		}
		return sim.Slot{SNRdB: g.snr(m), Training: true}
	}
	if g.w == nil {
		// Not established: start (or restart) training.
		g.beginRetrain(t)
		g.trainRemaining--
		g.TrainingSlots++
		if g.trainRemaining == 0 && g.onTrainDone != nil {
			done := g.onTrainDone
			g.onTrainDone = nil
			done(t, m)
		}
		return sim.Slot{SNRdB: math.Inf(-1), Training: true}
	}
	// Maintenance and CC refresh run inline: their CSI-RS probes occupy one
	// OFDM symbol each (§5.2), multiplexed with data in the same slot, and
	// are charged to a fractional training-slot debt. Each due opportunity
	// first clears the installed ProbeGrant (default: always granted); a
	// denied maintenance round stays due and is re-requested next slot,
	// while a denied CC refresh backs off one CC period.
	if t >= g.nextMaintain {
		if g.grantAllows(t, ProbeMaintain) {
			g.nextMaintain = t + g.cfg.MaintainPeriod
			g.nextCCRefresh = t + g.cfg.CCRefreshPeriod
			g.runWithDebt(func() { g.maintain(t, m) })
		} else {
			g.BudgetDenials++
		}
	} else if g.cfg.ConstructiveCombining && g.cfg.CCRefreshPeriod > 0 &&
		g.ccUpdatable() > 0 && t >= g.nextCCRefresh {
		// Lightweight CC phase refresh: only worth a probe when at least
		// one beam's phase is actually updatable (delay-separable from
		// every other active beam).
		if g.grantAllows(t, ProbeCC) {
			g.nextCCRefresh = t + g.cfg.CCRefreshPeriod
			g.runWithDebt(func() { g.ccRefresh(t, m) })
		} else {
			g.nextCCRefresh = t + g.cfg.CCRefreshPeriod
			g.BudgetDenials++
		}
	}
	// Pay down accumulated probe debt with whole training slots.
	if g.trainDebt >= 1 {
		g.trainDebt--
		g.TrainingSlots++
		return sim.Slot{SNRdB: g.snr(m), Training: true}
	}
	if g.trainRemaining > 0 {
		// An inline step scheduled a multi-slot operation (e.g. retrain).
		return g.Step(t, m)
	}
	// Data slot.
	snr := g.snr(m)
	if snr < link.OutageThresholdDB {
		g.badSlots++
		switch {
		case !g.emergencyTried && g.badSlots >= emergencyConfirmSlots:
			// A persistent dip (blockage onset) is first answered with an
			// immediate maintenance round — detect the blocked beam and
			// reallocate its power (§4.1) — instead of a full retrain. A
			// budget scheduler sees this as ProbeEmergency (preemption);
			// denial leaves the emergency pending for the next slot.
			if g.grantAllows(t, ProbeEmergency) {
				g.emergencyTried = true
				g.nextMaintain = t + g.cfg.MaintainPeriod
				g.runWithDebt(func() { g.maintain(t, m) })
				snr = g.snr(m) // reallocation may already have recovered it
			} else {
				g.BudgetDenials++
			}
		case g.emergencyTried && g.badSlots >= retrainConfirmSlots:
			// Maintenance could not recover the link and the outage has
			// outlasted any plausible fading dip: full retrain.
			g.emergencyTried = false
			g.badSlots = 0
			g.retrainCause(t, "data-outage")
		}
	} else {
		g.emergencyTried = false
		g.badSlots = 0
	}
	if !g.thrValid || snr != g.thrSNR {
		g.thrSNR, g.thrVal, g.thrValid = snr, link.Throughput(snr, g.budget.BandwidthHz, 0), true
	}
	return sim.Slot{SNRdB: snr, ThroughputBps: g.thrVal}
}

// bindUE wires the manager's UE-side combining beam into the channel
// snapshot. On first sight of a directional UE it builds the UE codebook.
func (g *Manager) bindUE(m *channel.Model) {
	if m.Rx == nil {
		return
	}
	if g.ueCB == nil {
		g.ueArr = m.Rx
		scan := dsp.Rad(nr.ScanRangeDeg)
		g.ueCB = antenna.DFTCodebook(m.Rx, 2*m.Rx.N+1, -scan, scan)
		g.ueScratch = make(cmx.Vector, m.Rx.N)
		g.ueBuf = make(cmx.Vector, m.Rx.N)
		g.ueCand = make([]float64, 0, 2*g.cfg.MaxBeams)
	}
	m.SetRxWeights(g.ueW) // nil = quasi-omni until the UE beam is trained
}

// snr returns the wideband effective SNR of the current beam over the true
// channel (−Inf before establishment). Under the incremental engine the
// fold is cached: a slot whose channel stamp (UE beam included) and
// front-end program are unchanged returns the previous value — which is
// exactly what the full fold would recompute, every input being
// bit-identical.
func (g *Manager) snr(m *channel.Model) float64 {
	w := g.fe.ActiveView() // read-only: the wideband evaluation only reads w
	if w == nil {
		return math.Inf(-1)
	}
	if !incr.Enabled {
		m.EffectiveWidebandSplitInto(w, g.offsets, g.wbRe, g.wbIm)
		return link.WidebandSNRdB(g.wbRe, g.wbIm, g.txLin, g.noiseLin)
	}
	ver := g.fe.Switches()
	if g.snrValid && g.snrModel == m && g.snrStamp == m.Stamp() && g.snrFEVer == ver {
		return g.snrVal
	}
	m.EffectiveWidebandSplitInto(w, g.offsets, g.wbRe, g.wbIm)
	v := link.WidebandSNRdB(g.wbRe, g.wbIm, g.txLin, g.noiseLin)
	g.snrModel, g.snrStamp, g.snrFEVer = m, m.Stamp(), ver
	g.snrVal, g.snrValid = v, true
	return v
}

// runWithDebt executes an inline maintenance step and charges its CSI-RS
// probes to the fractional training-slot debt: each probe occupies one OFDM
// symbol (1/SymbolsPerSlot of a slot), as in §5.2's overhead accounting.
func (g *Manager) runWithDebt(op func()) {
	before := g.sounder.Probes
	op()
	g.trainDebt += float64(g.sounder.Probes-before) / float64(g.num.SymbolsPerSlot)
}

// beginOp schedules a training operation of the given slot count whose
// effect lands when the last slot completes.
func (g *Manager) beginOp(slots int, done func(t float64, m *channel.Model)) {
	if slots < 1 {
		slots = 1
	}
	g.trainRemaining = slots
	g.onTrainDone = done
}

// slotsFor converts air time to whole slots (≥1).
func (g *Manager) slotsFor(airTime float64) int {
	return int(math.Max(1, math.Ceil(airTime/g.num.SlotDuration())))
}

// beginRetrain schedules a full SSB sweep plus multi-beam establishment,
// starting at the next SSB occasion.
func (g *Manager) beginRetrain(t float64) {
	g.retrainCause(t, "initial")
}

// retrainCause is beginRetrain with a recorded cause.
func (g *Manager) retrainCause(t float64, cause string) {
	if g.RetrainReasons == nil {
		g.RetrainReasons = map[string]int{}
	}
	g.RetrainReasons[cause]++
	g.Retrains++
	next := math.Ceil(t/nr.SSBPeriod) * nr.SSBPeriod
	wait := int((next - t) / g.num.SlotDuration())
	sweepProbes := g.cb.Len()
	if g.cfg.HierarchicalTraining {
		sweepProbes = nr.HierProbeCount(g.hierConfig())
	}
	sweepSlots := g.slotsFor(float64(sweepProbes) * g.num.SSBDuration())
	// Per-beam probes + combining probes + beam-set selection probes.
	estProbes := g.cfg.MaxBeams + 2*(g.cfg.MaxBeams-1) + (g.cfg.MaxBeams - 1)
	if g.ueCB != nil {
		estProbes += g.cfg.MaxBeams * g.ueCB.Len() // per-beam UE scans (§4.4)
	}
	g.beginOp(wait+sweepSlots+estProbes*nr.CSIRSSlots, g.establishFn)
}

// establish performs the sweep and builds the constructive multi-beam. It
// runs off the manager's establishment stores (see the field block): at
// metro scale blockage-driven retrains are steady-state behavior, so the
// whole path — sweep, per-beam probing, CC estimation, beam-set selection
// — stays off the allocator (pinned by TestEstablishAllocs and the cluster
// frame alloc test). The probing order and arithmetic are identical to the
// original allocating forms, preserving the determinism contract.
func (g *Manager) establish(t float64, m *channel.Model) {
	angles := g.trainAngles(m)
	if len(angles) == 0 {
		// Nothing viable: back off and retry.
		g.w = nil
		g.fullReset()
		g.beginOp(g.slotsFor(retrainBackoff), g.retrySweepFn)
		return
	}
	g.bp.m = m
	pr := &g.bp

	// Directional UE (§4.4): before measuring anything else, find the UE
	// arrival angle of each gNB beam with a per-beam UE codebook scan and
	// form a matching UE multi-beam — every subsequent probe and data slot
	// runs under it, so the TX-side combining estimates absorb the UE-side
	// per-path phases automatically.
	if g.ueCB != nil {
		// The lobe stores are rewritten in place: nothing outside the
		// manager holds them.
		ueAngles := resizeFloats(g.ueAngles, len(angles))
		ueAmps := resizeFloats(g.ueAmps, len(angles))
		for k, a := range angles {
			wk := g.u.SingleBeamInto(a, g.sbBuf)
			bestIdx, bestRSS := -1, 0.0
			for i, v := range g.ueCB.Weights {
				m.SetRxWeights(v)
				if r := nr.RSS(pr.ProbeInto(wk, g.csiBuf)); bestIdx == -1 || r > bestRSS {
					bestIdx, bestRSS = i, r
				}
			}
			ueAngles[k] = g.ueCB.Angles[bestIdx]
			ueAmps[k] = math.Sqrt(bestRSS)
		}
		// MRC-style lobe weighting: RX lobe amplitude proportional to the
		// path's measured amplitude.
		if ueAmps[0] > 0 {
			for k := range ueAmps {
				ueAmps[k] /= ueAmps[0]
			}
		} else {
			for k := range ueAmps {
				ueAmps[k] = 1
			}
		}
		g.ueAngles, g.ueAmps = ueAngles, ueAmps
		g.applyUEWeights(ueAngles)
		m.SetRxWeights(g.ueW)
	}

	// Per-beam single probes: magnitudes + delays.
	mags := g.magHeads[:0]
	delays := g.delayStore[:0]
	rss := g.rssStore[:0]
	for k, a := range angles {
		csi := pr.ProbeInto(g.u.SingleBeamInto(a, g.sbBuf), g.csiBuf)
		mags = append(mags, csi.AbsInto(g.magsFlat[k*nr.NumSC:(k+1)*nr.NumSC]))
		rss = append(rss, nr.RSS(csi))
		d, err := superres.EstimateDelayWS(g.sounder.CIRInto(csi, g.cirBuf), g.sounder.SampleSpacing(), g.ws)
		if err != nil {
			d = 0
		}
		delays = append(delays, d)
	}
	span := float64(nr.NumSC) * g.sounder.SampleSpacing()
	rel := g.relStore[:0]
	for k := range delays {
		rel = append(rel, superres.RelativeDelay(delays[k], delays[0], span))
	}
	rel[0] = 0

	// Constructive combining parameters.
	var beams []multibeam.Beam
	if len(angles) == 1 {
		beams = append(g.beamStore[:0], multibeam.Reference(angles[0]))
	} else if g.cfg.ConstructiveCombining {
		if err := estimateWithMags(&g.estBuf, pr, g.u, angles, mags, rel, g.budget.BandwidthHz, g.ws); err != nil {
			g.w = nil
			g.fullReset()
			g.beginOp(g.slotsFor(retrainBackoff), g.retryEstFn)
			return
		}
		beams, _ = g.estBuf.BeamsInto(angles, g.beamStore)
	} else {
		// Ablation: equal-amplitude, zero-phase lobes.
		beams = g.beamStore[:0]
		for _, a := range angles {
			beams = append(beams, multibeam.Beam{Angle: a, Amp: 1})
		}
	}
	// Beam-set selection: on a wideband channel a lobe with large excess
	// delay can be counter-productive (in-band ripple, §3.4), so keep the
	// beam prefix whose MEASURED wideband effective SNR is best. The
	// multi-beam therefore never does worse than the single beam.
	if len(beams) > 1 {
		snrs := g.snrSel[:len(beams)+1]
		bindK := func(k int) {
			// Couple the UE lobe count to the TX beam count under test.
			if g.ueCB != nil && g.applyUEWeightsN(k) {
				m.SetRxWeights(g.ueW)
			}
		}
		// Every candidate is scored on its measured magnitude row.
		if g.ueCB != nil {
			// Under a directional UE the k=1 config must be re-measured
			// with a single UE lobe.
			bindK(1)
			csi := pr.ProbeInto(g.u.SingleBeamInto(angles[0], g.sbBuf), g.csiBuf)
			snrs[1] = link.WidebandSNRdB(csi.AbsInto(g.magSel), g.zeroIm, g.txLin, g.noiseLin)
		} else {
			snrs[1] = link.WidebandSNRdB(mags[0], g.zeroIm, g.txLin, g.noiseLin)
		}
		maxSNR := snrs[1]
		for k := 2; k <= len(beams); k++ {
			snrs[k] = math.Inf(-1)
			wk, err := multibeam.WeightsInto(g.u, beams[:k], g.selW, g.mbScratch)
			if err != nil {
				continue
			}
			bindK(k)
			csi := pr.ProbeInto(wk, g.csiBuf)
			snrs[k] = link.WidebandSNRdB(csi.AbsInto(g.magSel), g.zeroIm, g.txLin, g.noiseLin)
			if snrs[k] > maxSNR {
				maxSNR = snrs[k]
			}
		}
		// Reliability-first: the largest beam set within tolerance of the
		// best measured SNR — but never sacrifice below the outage
		// threshold when a smaller set clears it.
		floor := maxSNR - selectionTolDB
		if th := link.OutageThresholdDB + 0.5; floor < th && maxSNR >= th {
			floor = th
		}
		bestK, found := 1, snrs[1] >= floor
		for k := 2; k <= len(beams); k++ {
			if snrs[k] >= floor {
				bestK, found = k, true
			}
		}
		if !found {
			// Everything is marginal: take the strongest measured set.
			for k := 1; k <= len(beams); k++ {
				if snrs[k] > snrs[bestK] {
					bestK = k
				}
			}
		}
		angles, rel, beams = angles[:bestK], rel[:bestK], beams[:bestK]
		mags, rss = mags[:bestK], rss[:bestK]
		if g.ueCB != nil {
			if len(g.ueAngles) > bestK {
				g.ueAngles = g.ueAngles[:bestK]
				g.ueAmps = g.ueAmps[:bestK]
			}
			if g.applyUEWeights(g.ueAngles) {
				m.SetRxWeights(g.ueW)
			}
		}
	}
	g.angles = angles
	g.relDelays = rel
	g.beams = beams
	g.mags = mags
	g.rssAnchor = rss
	g.active = g.activeStore[:0]
	for range beams {
		g.active = append(g.active, true)
	}
	g.ccUpdValid = false
	if !g.applyWeights() {
		g.w = nil
		g.fullReset()
		g.beginOp(g.slotsFor(retrainBackoff), g.retryComposeFn)
		return
	}
	// The tracker is kept across establishments: the next maintenance round
	// re-anchors it in place when the beam count is unchanged (state-for-
	// state the same as a fresh tracker, see track.Reanchor) and only
	// rebuilds it when the beam set genuinely changed size.
	g.needAnch = true
	g.nextMaintain = t + g.cfg.MaintainPeriod
}

// hierConfig derives the hierarchical-search configuration from the
// manager's beam order.
func (g *Manager) hierConfig() nr.HierConfig {
	return nr.HierConfig{Keep: g.cfg.MaxBeams, DynRangeDB: dynRangeDB}
}

// trainAngles runs the configured beam-training method and returns the
// viable path angles, strongest first (capped at MaxBeams). The returned
// slice aliases the manager's angle store — valid until the next training.
func (g *Manager) trainAngles(m *channel.Model) []float64 {
	if g.cfg.HierarchicalTraining {
		hres, err := nr.HierSweep(g.sounder, m, g.u, g.hierConfig())
		if err != nil || len(hres.Angles) == 0 {
			return nil
		}
		angles := hres.Angles
		if len(angles) > g.cfg.MaxBeams {
			angles = angles[:g.cfg.MaxBeams]
		}
		return append(g.angStore[:0], angles...)
	}
	res := nr.SweepInto(g.sounder, m, g.cb, g.cfg.MaxBeams, minSepIdx, dynRangeDB, &g.swp)
	return res.AnglesInto(g.cb, g.angStore[:0])
}

func (g *Manager) fullReset() {
	g.angles, g.relDelays, g.beams, g.active, g.mags, g.rssAnchor = nil, nil, nil, nil, nil, nil
	g.tracker = nil
	g.ccUpdValid = false
}

// applyWeights composes the active beams into weights and programs the
// front end. Returns false if no active beam remains.
func (g *Manager) applyWeights() bool {
	lobes := g.lobesBuf[:0]
	for k, b := range g.beams {
		if g.active[k] {
			lobes = append(lobes, b)
		}
	}
	g.lobesBuf = lobes[:0]
	if len(lobes) == 0 {
		return false
	}
	// Compose into the spare buffer and swap: the outgoing weight vector is
	// never retained by anyone else (the front end quantizes into its own
	// storage; probes and SNR evaluations read transiently), so the two
	// vectors can rotate forever without touching the allocator.
	w, err := multibeam.WeightsInto(g.u, lobes, g.wSpare, g.mbScratch)
	if err != nil {
		return false
	}
	g.wSpare = g.w
	g.w = w
	if g.wSpare == nil {
		// First-ever composition: g.w was the nil "not established" sentinel,
		// so the rotation just parked nil in the spare slot. Fill it now —
		// this is the one allocation an establishment is allowed, and it
		// happens at attach time, never in the steady state.
		g.wSpare = make(cmx.Vector, g.u.N)
	}
	if err := g.fe.SetWeights(w); err != nil {
		return false
	}
	if g.ueArr != nil && len(g.ueAngles) > 0 {
		g.applyUEWeights(g.ueAngles)
	}
	return true
}

// maintain is the periodic CSI-RS maintenance round. It runs with zero
// allocations in steady state (pinned by TestMaintainTickAllocs): probe,
// CIR, and super-resolution all work out of manager buffers and the
// workspace, which is marked on entry and released on exit — the
// extraction Result dies with the release, so everything the manager
// keeps (tracker anchors, refreshed magnitudes) is copied out before
// returning.
func (g *Manager) maintain(t float64, m *channel.Model) {
	mk := g.ws.Mark()
	defer g.ws.Release(mk)
	csi := g.sounder.ProbeInto(m, g.w, g.csiBuf)
	cir := g.sounder.CIRInto(csi, g.cirBuf)
	res, err := superres.ExtractInto(cir, g.relDelays, g.sounder.SampleSpacing(), superres.DefaultConfig(), g.ws)
	if err != nil {
		g.retrainCause(t, "superres")
		return
	}
	if g.tracker == nil || g.needAnch {
		powers := g.floorPowersInto(res.Power)
		if g.tracker != nil && g.tracker.NumBeams() == len(powers) {
			// Same beam set: re-anchor in place (state-for-state the same
			// as a fresh tracker, but allocation-free).
			if err := g.tracker.Reanchor(powers); err != nil {
				g.retrainCause(t, "tracker")
				return
			}
		} else {
			tr, err := track.New(g.u, track.DefaultConfig(), powers)
			if err != nil {
				g.retrainCause(t, "tracker")
				return
			}
			g.tracker = tr
		}
		g.needAnch = false
		return
	}
	sts, err := g.tracker.ObserveInto(g.stsBuf, t, res.Power)
	if err != nil {
		g.retrainCause(t, "tracker")
		return
	}
	g.stsBuf = sts
	// Recovery probe: a dropped lobe carries no TX power, so the CIR can
	// never show it coming back. Probe one blocked beam's single-beam RSS
	// per round; if it has recovered near its anchor, re-admit it.
	for k := range g.beams {
		if g.active[k] {
			continue
		}
		rss := nr.RSS(g.sounder.ProbeInto(m, g.u.SingleBeamInto(g.angles[k], g.sbBuf), g.csiBuf))
		if rss >= g.rssAnchor[k]*dsp.FromDB(-3) {
			g.active[k] = true
			g.ccUpdValid = false
			if g.applyWeights() {
				g.needAnch = true
			}
			return
		}
		break // at most one recovery probe per round
	}
	// Blockage response: reallocate power away from newly-blocked beams
	// (§4.1). Re-admission happens ONLY through the recovery probe above:
	// a dropped lobe carries no power, so the tracker's view of it is
	// meaningless once it has been re-anchored.
	changed := false
	for k, st := range sts {
		if g.active[k] && st.Blocked {
			g.active[k] = false
			changed = true
			g.BlockageDrops++
		}
	}
	if changed {
		g.ccUpdValid = false
		if !g.applyWeights() {
			// Every beam blocked: hold the last weights and retrain.
			for i := range g.active {
				g.active[i] = true
			}
			g.applyWeights()
			g.retrainCause(t, "all-blocked")
			return
		}
		g.needAnch = true
		return
	}
	// Mobility response (§4.2).
	if !g.cfg.ProactiveTracking {
		return
	}
	// §4.4: a power drop COMMON to every active beam is UE-side
	// misalignment (rotation of the directional UE shifts all arrival
	// angles together); per-beam drops are gNB-side misalignment.
	if g.ueW != nil {
		minDrop, maxDrop := math.Inf(1), math.Inf(-1)
		nAct := 0
		for k, st := range sts {
			if !g.active[k] {
				continue
			}
			nAct++
			minDrop = math.Min(minDrop, st.DropDB)
			maxDrop = math.Max(maxDrop, st.DropDB)
		}
		if nAct > 0 && minDrop >= 1.0 && (nAct == 1 || maxDrop-minDrop <= 2.0) {
			if dev := track.RotationFromDrop(g.ueArr, minDrop); dev >= dsp.Rad(minRefineDeg) {
				g.refineUE(t, m, dev)
				return
			}
		}
	}
	deviated := g.devIdx[:0]
	devs := g.devVal[:0]
	for k, st := range sts {
		if g.active[k] && st.Deviation >= dsp.Rad(minRefineDeg) {
			deviated = append(deviated, k)
			devs = append(devs, st.Deviation)
		}
	}
	g.devIdx, g.devVal = deviated[:0], devs[:0]
	if len(deviated) == 0 {
		return
	}
	g.refine(t, m, deviated, devs)
}

// ccRefresh re-derives the constructive-combining phases from one CSI-RS
// probe's CIR: every beam's complex amplitude shares the probe's CFO phase,
// so their ratios give the current relative channel phases directly. Only
// phases are updated (amplitude re-weighting waits for a full refinement so
// the tracker's per-beam power anchors stay valid).
func (g *Manager) ccRefresh(t float64, m *channel.Model) {
	mk := g.ws.Mark()
	defer g.ws.Release(mk)
	csi := g.sounder.ProbeInto(m, g.w, g.csiBuf)
	res, err := superres.ExtractInto(g.sounder.CIRInto(csi, g.cirBuf), g.relDelays, g.sounder.SampleSpacing(), superres.DefaultConfig(), g.ws)
	if err != nil {
		return // transient: the next maintenance round will deal with it
	}
	ref := -1
	for k := range g.beams {
		if g.active[k] {
			ref = k
			break
		}
	}
	if ref < 0 || res.Amp[ref] == 0 {
		return
	}
	degenerate := g.delayDegenerate()
	if degenerate[ref] {
		return
	}
	// Lobe coefficient c_k = A_k·e^{−jφ_k}; measured α_k ∝ g_k·c_k, so the
	// channel ratio g_k/g_ref = (α_k/α_ref)·(c_ref/c_k).
	cRef := cmplx.Rect(g.beams[ref].Amp, -g.beams[ref].Phase)
	changed := false
	for k := range g.beams {
		if k == ref || !g.active[k] || res.Amp[k] == 0 || degenerate[k] {
			continue
		}
		cK := cmplx.Rect(g.beams[k].Amp, -g.beams[k].Phase)
		gRatio := (res.Amp[k] / res.Amp[ref]) * (cRef / cK)
		newPhase := dsp.WrapPhase(cmplx.Phase(gRatio) + g.beams[ref].Phase)
		if math.Abs(dsp.WrapPhase(newPhase-g.beams[k].Phase)) > 0.05 {
			g.beams[k].Phase = newPhase
			changed = true
		}
	}
	if changed {
		g.applyWeights()
	}
}

// delayDegenerate marks beams whose relative delays are closer than a
// large fraction of the sounder resolution to another active beam: the CIR
// fit cannot split amplitude (hence phase) between such pairs, so their
// per-beam complex amplitudes are not trustworthy for phase updates.
// The returned slice is the manager's reused degBuf — valid until the
// next call.
func (g *Manager) delayDegenerate() []bool {
	const minSepS = 1.0e-9
	if cap(g.degBuf) < len(g.beams) {
		g.degBuf = make([]bool, len(g.beams))
	}
	out := g.degBuf[:len(g.beams)]
	for i := range out {
		out[i] = false
	}
	for a := range g.beams {
		for b := a + 1; b < len(g.beams); b++ {
			if g.active[a] && g.active[b] && math.Abs(g.relDelays[a]-g.relDelays[b]) < minSepS {
				out[a], out[b] = true, true
			}
		}
	}
	return out
}

// ccUpdatable returns how many non-reference active beams a CC phase
// refresh could actually update, from the cache when it is valid.
func (g *Manager) ccUpdatable() int {
	if !g.ccUpdValid {
		g.ccUpd, g.ccUpdValid = g.countCCUpdatable(), true
	}
	return g.ccUpd
}

// countCCUpdatable computes ccUpdatable from the beam state.
func (g *Manager) countCCUpdatable() int {
	if len(g.beams) < 2 {
		return 0
	}
	deg := g.delayDegenerate()
	ref := -1
	for k := range g.beams {
		if g.active[k] {
			ref = k
			break
		}
	}
	if ref < 0 || deg[ref] {
		return 0
	}
	n := 0
	for k := range g.beams {
		if k != ref && g.active[k] && !deg[k] {
			n++
		}
	}
	return n
}

// refineUE re-aligns the UE combining beam after a detected common-mode
// drop: one probe per rotation direction candidate (§4.4). It runs off
// retained storage: the candidates live in ueCand, the probes land in
// csiBuf/csi2Buf.
func (g *Manager) refineUE(t float64, m *channel.Model, dev float64) {
	g.Refinements++
	g.bp.m = m
	n := len(g.ueAngles)
	cand1, cand2 := g.ueCand[:n], g.ueCand[n:2*n]
	for i, a := range g.ueAngles {
		cand1[i], cand2[i] = a+dev, a-dev
	}
	var r1, r2 float64
	if g.applyUEWeights(cand1) {
		m.SetRxWeights(g.ueW)
		r1 = nr.RSS(g.bp.ProbeInto(g.w, g.csiBuf))
	}
	if g.applyUEWeights(cand2) {
		m.SetRxWeights(g.ueW)
		r2 = nr.RSS(g.bp.ProbeInto(g.w, g.csi2Buf))
	}
	switch {
	case r1 == 0 && r2 == 0:
		// Neither candidate heard anything: keep the angles.
	case r1 >= r2:
		copy(g.ueAngles, cand1)
	default:
		copy(g.ueAngles, cand2)
	}
	g.applyUEWeights(g.ueAngles)
	m.SetRxWeights(g.ueW)
	g.needAnch = true
}

// applyUEWeights composes the UE multi-beam with one lobe per (active) gNB
// beam, amplitude-weighted by the measured path strengths (RX-side MRC).
// Per-lobe phases are irrelevant here: the TX-side constructive combining
// absorbs the UE lobe phases path by path.
func (g *Manager) applyUEWeights(ueAngles []float64) bool {
	if g.ueArr == nil || len(ueAngles) == 0 {
		return false
	}
	lobes := g.ueLobes[:0]
	for k, a := range ueAngles {
		if k < len(g.active) && !g.active[k] {
			continue
		}
		lobes = append(lobes, multibeam.Beam{Angle: a, Amp: g.ueAmp(k)})
	}
	if len(lobes) == 0 {
		// Everything blocked: keep all lobes rather than go dark.
		for k, a := range ueAngles {
			lobes = append(lobes, multibeam.Beam{Angle: a, Amp: g.ueAmp(k)})
		}
	}
	g.ueLobes = lobes
	return g.composeUE(lobes)
}

// applyUEWeightsN composes the UE multi-beam from the first n lobes only
// (used while beam-set selection evaluates candidate beam counts).
func (g *Manager) applyUEWeightsN(n int) bool {
	if n > len(g.ueAngles) {
		n = len(g.ueAngles)
	}
	if n <= 0 {
		return false
	}
	lobes := g.ueLobes[:0]
	for k := 0; k < n; k++ {
		lobes = append(lobes, multibeam.Beam{Angle: g.ueAngles[k], Amp: g.ueAmp(k)})
	}
	g.ueLobes = lobes
	return g.composeUE(lobes)
}

// composeUE composes the UE combining beam from lobes into ueBuf. A failed
// composition leaves the UE quasi-omni (ueW nil); lobes with positive
// amplitudes, which is all the MRC weighting produces, never fail.
func (g *Manager) composeUE(lobes []multibeam.Beam) bool {
	w, err := multibeam.WeightsInto(g.ueArr, lobes, g.ueBuf, g.ueScratch)
	g.ueW = w
	return err == nil
}

// resizeFloats returns s resized to n elements, reusing its backing array
// when it is large enough.
func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// ueAmp returns the MRC amplitude of UE lobe k (1 when unknown).
func (g *Manager) ueAmp(k int) float64 {
	if k < len(g.ueAmps) && g.ueAmps[k] > 0 {
		return g.ueAmps[k]
	}
	return 1
}

// refine re-aligns the deviated beams: one ambiguity probe each, then a
// constructive-combining re-estimate with the cached per-beam magnitudes.
// Runs allocation-free in steady state (under maintain's workspace mark):
// probes land in retained buffers, refreshed magnitudes overwrite the
// cached rows in place, and the re-estimate works out of the workspace.
func (g *Manager) refine(t float64, m *channel.Model, deviated []int, devs []float64) {
	g.Refinements++
	g.bp.m = m
	pr := &g.bp
	for i, k := range deviated {
		c1, c2 := track.Candidates(g.angles[k], devs[i])
		csi1 := pr.ProbeInto(g.u.SingleBeamInto(c1, g.sbBuf), g.csiBuf)
		rss1 := nr.RSS(csi1)
		if rss1 > g.rssAnchor[k]*dsp.FromDB(-1) {
			// Candidate 1 recovers (within 1 dB of the anchor): take it.
			g.angles[k] = c1
			g.mags[k] = csi1.AbsInto(g.mags[k])
			g.rssAnchor[k] = rss1
		} else {
			// Otherwise the motion went the other way.
			csi2 := pr.ProbeInto(g.u.SingleBeamInto(c2, g.sbBuf), g.csi2Buf)
			// Accept whichever candidate measures stronger; this costs one
			// extra probe only when the first guess was wrong, matching the
			// paper's "probe one, fall back to the other" procedure.
			rss2 := nr.RSS(csi2)
			if rss2 >= rss1 {
				g.angles[k] = c2
				g.mags[k] = csi2.AbsInto(g.mags[k])
				g.rssAnchor[k] = rss2
			} else {
				g.angles[k] = c1
				g.mags[k] = csi1.AbsInto(g.mags[k])
				g.rssAnchor[k] = rss1
			}
		}
		g.beams[k].Angle = g.angles[k]
	}
	// Re-estimate constructive combining with refreshed magnitudes.
	if g.cfg.ConstructiveCombining && len(g.angles) > 1 {
		if err := estimateWithMags(&g.estBuf, pr, g.u, g.angles, g.mags, g.relDelays, g.budget.BandwidthHz, g.ws); err == nil {
			if beams, err := g.estBuf.BeamsInto(g.angles, g.beamsBuf); err == nil {
				g.beamsBuf = beams
				for k := range beams {
					if g.active[k] {
						g.beams[k] = beams[k]
					} else {
						beams[k] = g.beams[k]
					}
				}
			}
		}
	}
	if !g.applyWeights() {
		g.retrainCause(t, "compose")
		return
	}
	g.needAnch = true
}

// estimateWithMags runs the 2(K−1)-probe constructive-combining estimation
// reusing cached per-beam magnitudes (the paper's accounting: p1, p2 known
// from training). It reuses res's slice storage and draws the pair
// estimator's working buffers from ws (nil allocates — the arithmetic and
// probe order are identical either way).
func estimateWithMags(res *probe.Result, pr probe.Prober, u *antenna.ULA, angles []float64, mags [][]float64, rel []float64, bw float64, ws *scratch.Workspace) error {
	res.PerBeamPower = res.PerBeamPower[:0]
	res.Relative = res.Relative[:0]
	res.Probes = 0
	for k := range angles {
		res.PerBeamPower = append(res.PerBeamPower, meanPower(mags[k]))
	}
	for k := 1; k < len(angles); k++ {
		est, err := probe.EstimatePairWithDelayWS(pr, u, angles[0], angles[k], mags[0], mags[k], rel[k], bw, ws)
		if err != nil {
			return err
		}
		res.Relative = append(res.Relative, est)
		res.Probes += 2
	}
	return nil
}

func meanPower(mags []float64) float64 {
	var s float64
	for _, m := range mags {
		s += m * m
	}
	if len(mags) == 0 {
		return 0
	}
	return s / float64(len(mags))
}

// floorPowersInto clamps non-positive extracted powers to a tiny epsilon so
// the tracker can anchor (a fully-blocked beam at establishment time),
// copying into the manager's retained buffer.
func (g *Manager) floorPowersInto(p []float64) []float64 {
	out := append(g.pwrBuf[:0], p...)
	g.pwrBuf = out[:0]
	for i, v := range out {
		if v <= 0 {
			out[i] = 1e-30
		}
	}
	return out
}

// boundProber adapts the sounder + a channel snapshot to probe.Prober.
type boundProber struct {
	s *nr.Sounder
	m *channel.Model
}

// ProbeInto implements probe.Prober.
func (p *boundProber) ProbeInto(w, dst cmx.Vector) cmx.Vector {
	return p.s.ProbeInto(p.m, w, dst)
}
