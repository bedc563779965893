// Package cluster is the multi-cell CoMP serving fabric: several
// cooperating gNB stations (internal/station) at distinct poses in one
// shared environment serve a common UE population. Each UE holds a serving
// session plus one hot-standby session at its best backup cell — both full
// mmReliable beam managers, both maintained under their cell's CSI-RS probe
// budget — while the remaining cells are tracked with cheap periodic
// wide-beam monitoring probes charged against each cell's own budget. A
// frame-synchronous coordinator watches the serving link's SNR-drop and
// outage signals and executes make-before-break handover (hysteresis +
// time-to-trigger, so a static channel never ping-pongs), and a per-slot
// selection-diversity combiner across the two live legs reports the
// macro-diversity bound — the mechanism that lifts the paper's single-link
// reliability story (§5, Fig. 18) to a deployment where any one link can be
// blocked but two rarely are.
//
// Determinism contract (see DESIGN.md "Cluster layer"): every cross-cell
// decision — admission, cell selection, handover, standby retargeting,
// monitor probing — runs single-threaded at frame boundaries on state the
// member stations published at their barriers. Inside a frame, cells
// advance strictly in cell-index order, each over its own worker pool with
// session-private scenarios, models, and RNG streams derived from
// seeds.Mix(Seed, label, ue, cell). Output is therefore byte-identical at
// any worker count, like the station engine and experiments.ParallelTrials.
// Steady-state frames (no lifecycle events, no outage episodes) are
// zero-alloc: monitor probes run through retained sounders/models/buffers
// and the stations' slot loops are pinned alloc-free already.
package cluster

import (
	"fmt"
	"math"

	"mmreliable/internal/channel"
	"mmreliable/internal/env"
	"mmreliable/internal/incr"
	"mmreliable/internal/link"
	"mmreliable/internal/nr"
	"mmreliable/internal/scratch"
	"mmreliable/internal/station"
)

// Seed-stream labels for the cluster layer's RNG derivation (the station
// layer uses 981; experiments use small integers — see internal/seeds).
const (
	labelSession = 991 // per-(ue,cell) session sounder streams
	labelFading  = 992 // per-(ue,cell) fading processes
	labelMonitor = 993 // per-(ue,cell) monitor sounder streams
)

// Config tunes the cluster coordinator.
type Config struct {
	// Seed drives every derived RNG stream in the cluster (sessions,
	// fading, monitors) via seeds.Mix(Seed, label, ue, cell).
	Seed int64
	// MonitorEvery is the monitoring cadence in frames: every MonitorEvery-th
	// frame the coordinator fires one wide-beam probe per (UE, non-attached
	// cell) pair. Default 5 (one round per 100 ms at the 20 ms frame).
	MonitorEvery int
	// HysteresisDB is the margin by which a standby leg must beat the
	// serving leg before a handover may trigger (the classic A3 offset).
	HysteresisDB float64
	// DropTriggerDB is the serving-link SNR-drop (slow−fast EWMA) above
	// which the link counts as degrading.
	DropTriggerDB float64
	// TimeToTrigger is how many consecutive degraded-and-better frames must
	// elapse before the swap executes (≈ 3GPP TTT).
	TimeToTrigger int
	// MinStayFrames is the minimum dwell on a serving cell between
	// handovers — the ping-pong guard.
	MinStayFrames int
	// RetargetMarginDB is how much better (on monitor estimates) a
	// non-attached cell must look before the standby session is torn down
	// and re-pointed at it.
	RetargetMarginDB float64
	// Warmup excludes each UE's first seconds after attach from its
	// cluster-level metrics (initial beam training on both legs).
	Warmup float64
	// DisableFading drops the per-pair log-normal fading processes — the
	// paper's "w/o tracking"-style quiescent fixture. Steady-state frames
	// are then fully zero-alloc (fading jitter otherwise triggers the
	// occasional re-alignment), which is what benchmark and capacity
	// drivers at metro scale want.
	DisableFading bool
	// ArrayElems is the per-cell transmit array size (default 8, the
	// paper's testbed).
	ArrayElems int
	// Station configures every member cell's serving engine. FramePeriod,
	// Warmup and KeepFrameSlots are managed by the cluster (KeepFrameSlots
	// is forced on — the combiner and UE meters read per-slot outcomes at
	// the barrier).
	Station station.Config
}

// DefaultConfig returns the paper-matched cluster configuration: 100 ms
// monitoring, 3 dB hysteresis, 2-frame (40 ms) time-to-trigger, 200 ms
// minimum dwell.
func DefaultConfig() Config {
	return Config{
		MonitorEvery:     5,
		HysteresisDB:     3,
		DropTriggerDB:    6,
		TimeToTrigger:    2,
		MinStayFrames:    10,
		RetargetMarginDB: 3,
		Warmup:           0.08,
		ArrayElems:       8,
		Station:          station.DefaultConfig(),
	}
}

// Deployment is the cluster's shared radio geometry: one environment, one
// gNB pose per cell, one link budget for every cell.
type Deployment struct {
	Env    *env.Environment
	Cells  []env.Pose
	Budget link.Budget
}

// cell is one member gNB: its serving engine plus the coordinator-side
// admission bookkeeping.
type cell struct {
	idx int
	st  *station.Station
	// queued counts attaches handed to the station but not yet admitted at
	// a station frame boundary: Station.ActiveSessions is a barrier
	// snapshot and does not see them. Cleared after every station frame
	// (all cluster attaches use AttachAt = now, so one boundary drains
	// them).
	queued int
}

// canAdmit reports whether one more attach would pass the cell's admission
// control, queued-but-unadmitted attaches included.
func (c *cell) canAdmit(maxSessions int) bool {
	return c.st.ActiveSessions()+c.queued < maxSessions
}

// Cluster coordinates the member cells and the UE population.
type Cluster struct {
	cfg    Config
	num    nr.Numerology
	dep    Deployment
	cells  []*cell
	ues    []*ue
	txGain float64 // 10·log10(N) dB, the trained-beam gain over one element

	slotDur       float64
	slotsPerFrame int
	frame         int
	// nextID is the next UE id to hand out. Ids are never reused, so a
	// metro-scale driver can harvest finished UEs out of the resident set
	// (HarvestFinished) without later arrivals colliding with them.
	nextID int

	counters Counters
	// monGainDB compensates the wide beam's reduced gain so monitor
	// estimates approximate the SNR a trained narrow beam would reach.
	monGainDB float64

	// Monitor-round batch state: every (UE, non-attached cell) pair's
	// wideband evaluation runs through one planar channel.WidebandBatch
	// sweep per round instead of interleaving with sounder bookkeeping.
	monWS    *scratch.Workspace
	monBatch channel.WidebandBatch
	monPairs []monPair // registration order, (UE asc, cell asc)
	// monRe/monIm take each monitor estimate's probe CSI in planar form
	// for the SNR reduction (every estimate runs on the coordinator).
	monRe, monIm []float64
}

// monPair is one batched (UE, cell) monitor registration.
type monPair struct {
	u *ue
	c int
}

// New builds a cluster over the deployment. The member stations share the
// numerology and the cluster's frame period.
func New(num nr.Numerology, cfg Config, dep Deployment) (*Cluster, error) {
	if err := num.Validate(); err != nil {
		return nil, err
	}
	if len(dep.Cells) < 1 {
		return nil, fmt.Errorf("cluster: no cells in deployment")
	}
	if dep.Env == nil {
		return nil, fmt.Errorf("cluster: nil environment")
	}
	if err := dep.Budget.Validate(); err != nil {
		return nil, err
	}
	if cfg.MonitorEvery < 1 {
		return nil, fmt.Errorf("cluster: MonitorEvery %d < 1", cfg.MonitorEvery)
	}
	if cfg.TimeToTrigger < 1 {
		return nil, fmt.Errorf("cluster: TimeToTrigger %d < 1", cfg.TimeToTrigger)
	}
	if cfg.ArrayElems <= 0 {
		cfg.ArrayElems = 8
	}
	if cfg.ArrayElems < monitorElems {
		return nil, fmt.Errorf("cluster: ArrayElems %d < %d monitor-beam elements", cfg.ArrayElems, monitorElems)
	}
	if cfg.Warmup < 0 {
		return nil, fmt.Errorf("cluster: negative warmup %g", cfg.Warmup)
	}
	scfg := cfg.Station
	scfg.KeepFrameSlots = true
	scfg.Warmup = cfg.Warmup
	cl := &Cluster{
		cfg:       cfg,
		num:       num,
		dep:       dep,
		monGainDB: 10 * math.Log10(float64(cfg.ArrayElems)/monitorElems),
		monWS:     scratch.New(),
		monRe:     make([]float64, monitorNumSC),
		monIm:     make([]float64, monitorNumSC),
	}
	for i := range dep.Cells {
		st, err := station.New(num, scfg)
		if err != nil {
			return nil, err
		}
		cl.cells = append(cl.cells, &cell{idx: i, st: st})
	}
	cl.slotDur = num.SlotDuration()
	cl.slotsPerFrame = cl.cells[0].st.SlotsPerFrame()
	return cl, nil
}

// Now returns the start time of the next frame to execute.
func (cl *Cluster) Now() float64 {
	return float64(cl.frame*cl.slotsPerFrame) * cl.slotDur
}

// FramePeriod returns the duration of one cluster frame in seconds.
func (cl *Cluster) FramePeriod() float64 { return float64(cl.slotsPerFrame) * cl.slotDur }

// Cells returns the number of member cells.
func (cl *Cluster) Cells() int { return len(cl.cells) }

// ResidentUEs returns the number of UEs currently held by the cluster
// (attached, awaiting admission, or finished-but-unharvested).
func (cl *Cluster) ResidentUEs() int { return len(cl.ues) }

// AdvanceFrame executes one cluster frame: UE lifecycle and cell selection
// on the coordinator, then every member cell's serving frame in cell-index
// order, then (on monitor frames) the wide-beam monitoring round, then the
// per-UE harvest — metering, diversity combining, and the handover FSM.
func (cl *Cluster) AdvanceFrame() {
	t0 := cl.Now()
	t1 := float64((cl.frame+1)*cl.slotsPerFrame) * cl.slotDur
	cl.processUEEvents(t0)
	for _, c := range cl.cells {
		c.st.AdvanceFrame()
		c.queued = 0 // the boundary just drained every queued attach
	}
	if cl.frame%cl.cfg.MonitorEvery == 0 {
		cl.monitorRound(t1)
	}
	cl.harvest(t0)
	cl.counters.Frames++
	cl.frame++
}

// Run advances whole frames until the cluster clock reaches duration
// (absolute simulated seconds, warmup included) and returns the results.
func (cl *Cluster) Run(duration float64) Results {
	frames := int(math.Ceil(duration / (float64(cl.slotsPerFrame) * cl.slotDur)))
	for i := 0; i < frames; i++ {
		cl.AdvanceFrame()
	}
	return cl.Results()
}

// processUEEvents handles UE arrivals and departures at the frame boundary.
func (cl *Cluster) processUEEvents(t0 float64) {
	for _, u := range cl.ues {
		switch {
		case !u.attached && !u.done && u.cfg.AttachAt <= t0:
			cl.admitUE(u, t0)
		case u.attached && (u.detachNow || u.cfg.DetachAt > 0 && u.cfg.DetachAt <= t0):
			cl.finishUE(u)
		}
	}
}

// admitUE performs initial cell selection for an arriving UE: probe every
// cell once, rank by monitor estimate (ties toward the lower cell index),
// attach the serving session at the best admissible cell and the hot
// standby at the next best. If no cell can admit the UE this frame, the
// arrival is deferred to the next boundary.
func (cl *Cluster) admitUE(u *ue, t0 float64) {
	best, second := -1, -1
	var bestSNR, secondSNR float64
	for c := range cl.cells {
		snr := u.monitorProbe(cl, c, t0)
		cl.counters.MonitorProbes++
		cl.cells[c].st.ChargeExternalProbes(1)
		if !cl.cells[c].canAdmit(cl.cfg.Station.MaxSessions) {
			continue
		}
		if best < 0 || snr > bestSNR {
			second, secondSNR = best, bestSNR
			best, bestSNR = c, snr
		} else if second < 0 || snr > secondSNR {
			second, secondSNR = c, snr
		}
	}
	if best < 0 {
		cl.counters.AdmissionDeferrals++
		u.deferred = true
		return
	}
	if err := u.attachLeg(cl, best, t0); err != nil {
		// Attach errors are construction bugs (validated scenarios), not
		// runtime conditions; surface them loudly.
		panic(fmt.Sprintf("cluster: serving attach failed: %v", err))
	}
	u.serving = best
	if second >= 0 {
		if err := u.attachLeg(cl, second, t0); err != nil {
			panic(fmt.Sprintf("cluster: standby attach failed: %v", err))
		}
		u.standby = second
	}
	u.attached = true
	u.effectiveAttach = t0
	u.lastSwapFrame = cl.frame - cl.cfg.MinStayFrames // first HO not dwell-blocked
	cl.counters.UEsAttached++
}

// finishUE tears down both legs and freezes the UE's metrics.
func (cl *Cluster) finishUE(u *ue) {
	for c, id := range u.sess {
		if id >= 0 && cl.cells[c].st.SessionActive(id) {
			cl.cells[c].st.DetachNow(id)
		}
	}
	u.attached = false
	u.done = true
	cl.counters.UEsFinished++
}

// monitorRound fires one wide-beam probe per (UE, non-attached cell) pair,
// in (UE ascending, cell ascending) order, updating the per-pair monitor
// EWMAs and charging each probe to the target cell's CSI-RS budget. Runs at
// the frame's end time t1, after the cells' slot loops have finished.
//
// The round is batched through the planar DSP backend: a gather pass
// advances every pair's channel model and registers its wide beam with one
// channel.WidebandBatch, the batch evaluates all pairs back-to-back on the
// planar kernels, and a fold pass feeds each planar row to the pair's
// sounder (ProbeFromSplit — the same bits and RNG draws as ProbeInto) and
// updates the monitor EWMA. Standby retargets run after all probes; they
// read only monitor estimates and admission state, and relative retarget
// order across UEs is preserved, so decisions match the pair-at-a-time
// schedule.
//
// Incremental engine: a pair whose channel content stamp and wide beam are
// unchanged since its last round (u.monRowFresh) replays its cached planar
// row through ProbeFromSplit inline instead of re-registering with the
// batch. The sounder still fires — each pair's RNG stream is private, so
// its noise draws, the EWMA fold, and every counter are byte-identical to
// the full-eval schedule; only the noiseless planar arithmetic is skipped.
func (cl *Cluster) monitorRound(t1 float64) {
	cl.counters.MonitorRounds++
	cl.monPairs = cl.monPairs[:0]
	first := true
	for _, u := range cl.ues {
		if !u.attached {
			continue
		}
		for c := range cl.cells {
			if c == u.serving || c == u.standby {
				continue
			}
			cl.counters.MonitorProbes++
			cl.cells[c].st.ChargeExternalProbes(1)
			u.ensureMonitor(cl, c)
			if first {
				cl.monBatch.Reset(u.monSnd[c].SubcarrierOffsets())
				first = false
			}
			m := u.refreshMonitorModel(cl, c, t1)
			if m == nil {
				continue // fully shadowed: −Inf recorded, no probe fired
			}
			if incr.Enabled && u.monRowFresh(c, m) {
				csi := u.monSnd[c].ProbeFromSplit(u.monRowRe[c], u.monRowIm[c], u.monCSI)
				u.foldMonitorEstimate(cl, c, csi)
				cl.counters.MonitorRowsReused++
				continue
			}
			cl.monBatch.Add(m, u.monBeam[c])
			cl.monPairs = append(cl.monPairs, monPair{u: u, c: c})
		}
	}
	if len(cl.monPairs) > 0 {
		mk := cl.monWS.Mark()
		cl.monBatch.Eval(cl.monWS)
		for r, p := range cl.monPairs {
			re, im := cl.monBatch.Row(r)
			csi := p.u.monSnd[p.c].ProbeFromSplit(re, im, p.u.monCSI)
			p.u.foldMonitorEstimate(cl, p.c, csi)
			if incr.Enabled {
				p.u.monRowStore(p.c, p.u.monMod[p.c], re, im)
			}
		}
		cl.monWS.Release(mk)
	}
	for _, u := range cl.ues {
		if u.attached {
			cl.retargetStandby(u)
		}
	}
}
