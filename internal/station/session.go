package station

import (
	"fmt"
	"math/rand"

	"mmreliable/internal/channel"
	"mmreliable/internal/link"
	"mmreliable/internal/sim"

	"mmreliable/internal/core/manager"
)

// SessionConfig describes one UE attach request.
type SessionConfig struct {
	// Scenario is the UE's private world: environment, mobility trace,
	// blockage schedule. The station owns it for the session's lifetime —
	// scenarios carry per-slot scratch and are single-goroutine, so never
	// share one *sim.Scenario between sessions.
	Scenario *sim.Scenario
	// Budget is the link budget the session's manager and metrics use.
	Budget link.Budget
	// Seed drives the session's sounder noise/impairment stream. Derive it
	// with seeds.Mix(baseSeed, stationLabel, id) so sessions get
	// collision-free streams under the shared determinism contract.
	Seed int64
	// AttachAt is the absolute time the UE arrives (0 = at start).
	// Admission happens at the first frame boundary ≥ AttachAt.
	AttachAt float64
	// DetachAt, when positive, is the absolute time the UE leaves; the
	// session is torn down at the first frame boundary ≥ DetachAt and its
	// metrics are frozen.
	DetachAt float64
}

// sessionState is a session's lifecycle phase.
type sessionState int

const (
	sessionPending sessionState = iota
	sessionActive
	sessionDetached
	sessionRejected
)

func (s sessionState) String() string {
	switch s {
	case sessionPending:
		return "pending"
	case sessionActive:
		return "active"
	case sessionDetached:
		return "detached"
	case sessionRejected:
		return "rejected"
	default:
		return "unknown"
	}
}

// Session is one UE's serving context: manager, persistent channel model,
// metrics, and the scheduler-facing grant/priority state.
type Session struct {
	id     int
	sc     *sim.Scenario
	budget link.Budget
	mgr    *manager.Manager
	model  *channel.Model
	meter  *link.Meter
	grant  sessionGrant

	attachAt, detachAt float64
	detachNow          bool // forced teardown at the next boundary (DetachNow)
	state              sessionState
	effectiveAttach    float64 // frame-aligned admission time
	detachedAt         float64
	slotsRun           int64
	frameSlots         []sim.Slot // last frame's per-slot outcomes (KeepFrameSlots)

	txLin, noiseLin float64 // hoisted link.Budget.SNRTerms()

	// Scheduler inputs. Written by the worker that owns the session inside
	// a frame, read by the coordinator at the barrier (par.For's return
	// provides the happens-before edge).
	lastSNR        float64
	ewmaFast       float64
	ewmaSlow       float64
	haveEWMA       bool
	lastGrantFrame int
	deniedFrames   int
	preemptBoost   bool
	lastPreempted  int
	wantedMaintain bool

	// sdmaSlots counts slots this session transmitted through the digital
	// MMSE combiner (Chains ≥ 2 only). Written by the owning worker.
	sdmaSlots int64
	// harvested is the session's accounting as of the last frame barrier;
	// harvestFrame folds the delta since then into the station counters.
	harvested sessionTally
}

// Attach registers a UE session. The session becomes active at the first
// frame boundary ≥ cfg.AttachAt, subject to the MaxSessions admission cap.
// Returns the session id (stable, in attach-call order).
func (st *Station) Attach(cfg SessionConfig) (int, error) {
	if cfg.Scenario == nil {
		return 0, fmt.Errorf("station: nil scenario")
	}
	if err := cfg.Scenario.Validate(); err != nil {
		return 0, err
	}
	if cfg.DetachAt > 0 && cfg.DetachAt <= cfg.AttachAt {
		return 0, fmt.Errorf("station: DetachAt %g ≤ AttachAt %g", cfg.DetachAt, cfg.AttachAt)
	}
	id := len(st.sessions)
	mgr, err := manager.New(fmt.Sprintf("ue%03d", id), cfg.Scenario.TxArray, cfg.Budget,
		st.num, st.cfg.Manager, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return 0, err
	}
	ss := &Session{
		id:       id,
		sc:       cfg.Scenario,
		budget:   cfg.Budget,
		mgr:      mgr,
		model:    &channel.Model{Reuse: true},
		meter:    link.NewMeter(),
		attachAt: cfg.AttachAt,
		detachAt: cfg.DetachAt,
		state:    sessionPending,
	}
	ss.txLin, ss.noiseLin = cfg.Budget.SNRTerms()
	if st.cfg.KeepFrameSlots {
		ss.frameSlots = make([]sim.Slot, 0, st.slotsPerFrame)
	}
	mgr.SetProbeGrant(&ss.grant)
	st.sessions = append(st.sessions, ss)
	// Sorted insert into pending by (AttachAt, id): ids are monotone, so a
	// stable insertion on AttachAt alone preserves the tiebreak.
	i := len(st.pending)
	for i > 0 && st.pending[i-1].attachAt > ss.attachAt {
		i--
	}
	st.pending = append(st.pending, nil)
	copy(st.pending[i+1:], st.pending[i:])
	st.pending[i] = ss
	return id, nil
}

// observe feeds the scheduler's SNR-drop estimator: a fast and a slow EWMA
// whose divergence (slow − fast, clamped ≥ 0) measures how far the link
// has recently fallen below its running level.
func (ss *Session) observe(snrDB float64) {
	s := snrDB
	if s < snrFloorDB {
		s = snrFloorDB
	}
	if !ss.haveEWMA {
		ss.ewmaFast, ss.ewmaSlow, ss.haveEWMA = s, s, true
	} else {
		ss.ewmaFast += fastAlpha * (s - ss.ewmaFast)
		ss.ewmaSlow += slowAlpha * (s - ss.ewmaSlow)
	}
	ss.lastSNR = s
}

// dropDB returns the scheduler's estimate of the session's recent SNR drop.
func (ss *Session) dropDB() float64 {
	d := ss.ewmaSlow - ss.ewmaFast
	if d < 0 {
		return 0
	}
	return d
}

// sessionGrant implements manager.ProbeGrant with a per-frame token
// allowance set by the scheduler. Owned by whichever worker steps the
// session this frame; read by the coordinator only at the barrier.
type sessionGrant struct {
	// Frame-local state, reset by scheduleFrame.
	tokens          int
	reserveMaintain bool // a maintenance round is due this frame: keep the last token for it
	maintainGranted bool

	// Cumulative accounting.
	granted   int
	denied    int
	preempted int
}

// Grant implements manager.ProbeGrant.
func (gr *sessionGrant) Grant(_ float64, kind manager.ProbeKind) bool {
	switch kind {
	case manager.ProbeEmergency:
		// Blockage onset: preempt immediately, budget or not. The probes
		// spent here are charged against the NEXT frame's budget
		// (Station.carryover), so the aggregate overhead bound still holds
		// on average.
		gr.preempted++
		gr.maintainGranted = true // an emergency round IS a maintenance round
		return true
	case manager.ProbeMaintain:
		if gr.tokens > 0 {
			gr.tokens--
			gr.reserveMaintain = false
			gr.maintainGranted = true
			gr.granted++
			return true
		}
		gr.denied++
		return false
	default: // manager.ProbeCC
		if gr.tokens > 1 || (gr.tokens == 1 && !gr.reserveMaintain) {
			gr.tokens--
			gr.granted++
			return true
		}
		gr.denied++
		return false
	}
}
