// Package station is the concurrent multi-UE gNB serving engine: N
// independent UE sessions — each a full mmReliable beam manager
// (internal/core/manager) against its own ray-traced scenario — share one
// radio frame and one CSI-RS probe budget. A probe-budget scheduler
// arbitrates the budget across sessions every frame (priority =
// staleness × SNR-drop, with starvation aging and immediate preemption on
// blockage emergencies), so aggregate maintenance overhead stays bounded
// no matter how many UEs attach — the paper's §5 low-overhead claim lifted
// from one link to a serving cell.
//
// Execution model and determinism contract (see DESIGN.md "Station serving
// layer"): time advances in frames of FramePeriod seconds. At each frame
// boundary the coordinator — single-threaded — processes attach/detach
// events, allocates probe tokens, and plans the scheduling units that share
// the cell's airtime (sdma.go); inside the frame every unit steps its slots
// independently (its sessions' scenarios, channel models, sounder RNGs, and
// manager state are all unit-private), sharded across the process's worker
// pool (internal/par).
// Because scheduler decisions read only per-session state published at the
// barrier, and units never share mutable state, the engine's output is
// byte-identical at any worker count — the same contract as
// experiments.ParallelTrials. Per-session steady-state stepping is
// zero-alloc (pinned by TestStationSlotAllocs): persistent channel models
// (Model.Reuse + Scenario.ChannelInto), manager buffers, and per-worker scratch
// arenas keep the slot loop off the allocator.
package station

import (
	"fmt"
	"math"
	"runtime"

	"mmreliable/internal/channel"
	"mmreliable/internal/hybrid"
	"mmreliable/internal/nr"
	"mmreliable/internal/scratch"
	"mmreliable/internal/sim"

	"mmreliable/internal/core/manager"
)

// Config tunes the serving engine.
type Config struct {
	// ProbeBudget is the number of maintenance/CC probe grants the
	// scheduler may hand out per frame across ALL sessions. Each grant
	// covers one maintenance round (a probe plus at most one recovery
	// probe) or one CC phase-refresh probe. 0 or negative disables
	// arbitration: every session self-schedules, as a lone manager would.
	ProbeBudget int
	// FramePeriod is the scheduling frame in seconds (default 20 ms — one
	// SSB/maintenance period, so a granted session can run exactly one
	// maintenance round per frame).
	FramePeriod float64
	// MaxSessions is the admission-control cap on concurrently attached
	// sessions; attach requests beyond it are rejected.
	MaxSessions int
	// Workers shards session stepping (0 = GOMAXPROCS). Output is
	// byte-identical for any value.
	Workers int
	// Warmup excludes the first seconds after each session's attach from
	// its metrics (initial beam training), mirroring sim.Runner.Warmup.
	Warmup float64
	// AgingBoost is the priority added per consecutive frame a session
	// wanted a maintenance grant and was denied — the starvation guard:
	// any denied session's priority grows without bound until it wins.
	AgingBoost float64
	// KeepFrameSlots records every session's per-slot outcomes for the
	// frame that just ran into a retained per-session buffer, readable at
	// the barrier via SessionFrameSlots — the input a cluster coordinator
	// needs for UE-level metering and selection-diversity combining.
	// Costs slotsPerFrame slots of memory per session, nothing else.
	KeepFrameSlots bool
	// SDMA configures how the cell's sessions share its airtime: the
	// slot-sharing planner and the RF-chain count of the hybrid front end
	// (internal/hybrid).
	SDMA SDMAConfig
	// Manager configures every session's beam manager.
	Manager manager.Config
}

// SDMAConfig tunes the interference-aware slot-sharing planner.
type SDMAConfig struct {
	// Chains is the RF-chain count of the hybrid front end (at least 1):
	// the maximum number of UEs one slot may serve. 1 is the paper's
	// single-RF-chain link: round-robin TDMA across all sessions. ≥2
	// enables greedy angular-separation grouping with a per-slot digital
	// MMSE combiner.
	Chains int
	// MinSeparationDeg is the minimum tracked-AoD gap (degrees) between
	// any two co-scheduled sessions.
	MinSeparationDeg float64
	// MinSINRdB is the pre-commit screen: every member of a candidate
	// group must predict at least this SINR (hybrid.PredictSINRdB) or the
	// candidate is rejected.
	MinSINRdB float64
}

// DefaultSDMAConfig returns the tuned slot-sharing policy for the given
// chain count: a 20° AoD gap and an 18 dB predicted-SINR screen. The
// margin above the 6 dB outage threshold absorbs what the analog
// prediction cannot see — multibeam side lobes toward reflection paths
// and band-edge decorrelation of the center-subcarrier MMSE nulls — so a
// committed group sustains TDMA-grade reliability while roughly 1.3×-ing
// the cell's sum throughput at 8 spread UEs.
func DefaultSDMAConfig(chains int) SDMAConfig {
	return SDMAConfig{Chains: chains, MinSeparationDeg: 20, MinSINRdB: 18}
}

// DefaultConfig returns a paper-matched serving configuration: a 20 ms
// frame, an 8-grant budget (≈0.36% of slots per granted session, §5.2),
// and one RF chain, so the cell's sessions share its airtime by TDMA.
func DefaultConfig() Config {
	return Config{
		ProbeBudget: 8,
		FramePeriod: 20e-3,
		MaxSessions: 64,
		Warmup:      sim.StandardWarmup,
		AgingBoost:  0.25,
		SDMA:        DefaultSDMAConfig(1),
		Manager:     manager.DefaultConfig(),
	}
}

// Scheduler tuning constants.
const (
	// snrFloorDB clamps per-slot SNR observations (−Inf during training)
	// so the drop estimator stays finite.
	snrFloorDB = -30.0
	// fastAlpha/slowAlpha are the EWMA constants of the two SNR trackers
	// whose divergence estimates the session's recent SNR drop.
	fastAlpha = 0.25
	slowAlpha = 0.02
	// maxTokensPerFrame caps one session's share of a frame's budget so
	// leftover tokens spread across sessions instead of piling onto the
	// top-priority one.
	maxTokensPerFrame = 4
	// preemptBoostPriority puts a session that fired a blockage emergency
	// last frame ahead of everything else until its follow-up maintenance
	// lands.
	preemptBoostPriority = 1e6
	// unlimitedTokens is the per-frame allowance when ProbeBudget ≤ 0.
	unlimitedTokens = 1 << 30
)

// Station serves N UE sessions against one shared radio frame.
type Station struct {
	cfg           Config
	num           nr.Numerology
	slotDur       float64
	slotsPerFrame int
	workers       int

	sessions []*Session // every session ever admitted via Attach, in ID order
	active   []*Session // currently attached, admission order
	pending  []*Session // scheduled attaches, sorted by (AttachAt, ID)
	ws       []*scratch.Workspace

	frame     int // next frame index to execute
	carryover int // emergency probes borrowed against the next frame's budget

	// Scheduler scratch (preallocated; the steady-state frame loop never
	// touches the allocator).
	schedIdx  []int
	schedPrio []float64

	// Frame-entry batch state (batchFrameEntry): one planar wideband pass
	// over every grant-holding established session at the frame barrier.
	batch    channel.WidebandBatch
	batchIdx []int // active[] indices of this frame's batch rows

	// Slot-sharing state (sdma.go). units/unitStore are rebuilt by
	// planFrameUnits every frame from preallocated backing, so the steady
	// state stays off the allocator.
	units        [][]int // scheduling units: active[] indices sharing one airtime share
	unitStore    []int
	sdmaAssigned []bool
	combiners    []*hybrid.Combiner        // per-worker digital stage (Chains ≥ 2)
	frameT0      float64                   // start time of the frame runSessions steps
	runUnitFn    func(worker, unitIdx int) // runUnit, bound once: no closure per frame

	counters Counters
}

// New builds a station over the given numerology.
func New(num nr.Numerology, cfg Config) (*Station, error) {
	if err := num.Validate(); err != nil {
		return nil, err
	}
	if cfg.FramePeriod <= 0 {
		return nil, fmt.Errorf("station: non-positive frame period %g", cfg.FramePeriod)
	}
	if cfg.MaxSessions < 1 {
		return nil, fmt.Errorf("station: MaxSessions %d < 1", cfg.MaxSessions)
	}
	if cfg.Warmup < 0 {
		return nil, fmt.Errorf("station: negative warmup %g", cfg.Warmup)
	}
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	slotDur := num.SlotDuration()
	spf := int(math.Round(cfg.FramePeriod / slotDur))
	if spf < 1 {
		spf = 1
	}
	if cfg.SDMA.Chains < 1 || cfg.SDMA.Chains > sdmaMaxChains {
		return nil, fmt.Errorf("station: SDMA.Chains %d outside [1, %d]", cfg.SDMA.Chains, sdmaMaxChains)
	}
	// Every attach builds a manager from cfg.Manager: a config it would
	// refuse is refused here, before any session exists.
	if err := cfg.Manager.Validate(); err != nil {
		return nil, fmt.Errorf("station: %w", err)
	}
	st := &Station{
		cfg:           cfg,
		num:           num,
		slotDur:       slotDur,
		slotsPerFrame: spf,
		workers:       w,
		schedIdx:      make([]int, cfg.MaxSessions),
		schedPrio:     make([]float64, cfg.MaxSessions),
		batchIdx:      make([]int, 0, cfg.MaxSessions),
		units:         make([][]int, 0, cfg.MaxSessions),
		unitStore:     make([]int, 0, cfg.MaxSessions),
		sdmaAssigned:  make([]bool, cfg.MaxSessions),
	}
	st.ws = make([]*scratch.Workspace, w)
	for k := range st.ws {
		st.ws[k] = scratch.New()
	}
	if cfg.SDMA.Chains >= 2 {
		st.combiners = make([]*hybrid.Combiner, w)
		for k := range st.combiners {
			st.combiners[k] = hybrid.NewCombiner(cfg.SDMA.Chains, nr.NumSC)
		}
	}
	st.runUnitFn = st.runUnit
	return st, nil
}

// Now returns the start time of the next frame to execute.
func (st *Station) Now() float64 {
	return float64(st.frame*st.slotsPerFrame) * st.slotDur
}

// Frame returns the index of the next frame to execute.
func (st *Station) Frame() int { return st.frame }

// SlotsPerFrame returns the slot count of one scheduling frame.
func (st *Station) SlotsPerFrame() int { return st.slotsPerFrame }

// ActiveSessions returns the number of currently attached sessions.
func (st *Station) ActiveSessions() int { return len(st.active) }

// AdvanceFrame executes one scheduling frame: attach/detach processing and
// probe-token allocation on the coordinator, then parallel session
// stepping (runSessions), then accounting harvest at the barrier.
func (st *Station) AdvanceFrame() {
	t0 := st.Now()
	t1 := float64((st.frame+1)*st.slotsPerFrame) * st.slotDur
	st.processEvents(t0)
	st.scheduleFrame(t1)
	st.planFrameUnits()
	st.batchFrameEntry()
	st.frameT0 = t0
	st.runSessions()
	st.harvestFrame()
	st.counters.Frames++
	st.counters.SessionSlots += int64(len(st.active) * st.slotsPerFrame)
	st.frame++
}

// Run advances whole frames until the station clock reaches duration
// (absolute simulated seconds, warmup included) and returns the results.
func (st *Station) Run(duration float64) Results {
	frames := int(math.Ceil(duration / (float64(st.slotsPerFrame) * st.slotDur)))
	for i := 0; i < frames; i++ {
		st.AdvanceFrame()
	}
	return st.Results()
}
