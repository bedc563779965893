// Package sim provides the slot-level simulation harness that drives every
// end-to-end experiment: a Scenario (environment, mobility trace, blockage
// schedule) is replayed slot by slot against one or more beam-management
// Schemes, and each scheme's per-slot outcomes are folded into the paper's
// reliability and throughput metrics.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"mmreliable/internal/antenna"
	"mmreliable/internal/channel"
	"mmreliable/internal/env"
	"mmreliable/internal/events"
	"mmreliable/internal/incr"
	"mmreliable/internal/link"
	"mmreliable/internal/motion"
	"mmreliable/internal/nr"
)

// Slot is one scheme's outcome for one slot.
type Slot struct {
	// SNRdB is the wideband effective SNR the scheme's current beam
	// achieves over the true channel this slot.
	SNRdB float64
	// Training marks the slot as consumed by beam management (probing or
	// training): no data, reliability charge.
	Training bool
	// ThroughputBps is the data rate achieved this slot (0 when training
	// or in outage).
	ThroughputBps float64
}

// Scheme is a beam-management policy under test. Step is called once per
// slot with the current channel snapshot (the true channel; schemes must
// only observe it through their own sounder probes and use the snapshot for
// the slot's data-transmission outcome).
type Scheme interface {
	Name() string
	Step(t float64, m *channel.Model) Slot
}

// MultiScheme is a beam-management policy that sees one channel snapshot
// per gNB each slot — the contract for handover controllers and
// joint-transmission schemes (see Runner.RunMulti).
type MultiScheme interface {
	Name() string
	StepMulti(t float64, ms []*channel.Model) Slot
}

// Scenario describes one end-to-end experiment: one gNB's world. A
// multi-gNB run is a slice of Scenarios (see Runner.RunMulti).
type Scenario struct {
	Env      *env.Environment
	GNB      env.Pose
	UE       motion.Trace
	Blockage events.Schedule
	Duration float64 // seconds
	Num      nr.Numerology
	TxArray  *antenna.ULA
	// UEArray, when non-nil, gives the UE a directional phased array (the
	// §4.4 scenario). Schemes see it as Model.Rx and must manage their own
	// UE-side combining beam via Model.RxWeights; nil means a quasi-omni
	// UE.
	UEArray *antenna.ULA
	// MaxPaths caps the modeled paths per slot (0 = no cap).
	MaxPaths int
	// Fading, when non-nil, adds temporally-correlated small-scale fading
	// to every path (Gauss-Markov in dB). Real mmWave links wobble ±1–2 dB
	// even when nominally static.
	Fading *Fading

	initialVias map[int]int // wall id → stable path rank (lazily built)
	nextID      int
	// traceBuf and idsBuf are the per-slot scratch of ChannelInto:
	// the ray tracer appends into traceBuf and the stable-id mapping reuses
	// idsBuf, so steady-state slot stepping does not touch the allocator.
	// They make a Scenario single-goroutine; parallel trials each build
	// their own Scenario (the experiment engine already does).
	traceBuf []env.Path
	idsBuf   []int
	// tracePose/traceValid memoize traceBuf for the pose it was traced at:
	// a static UE (or any dwell between waypoints) re-traces nothing, since
	// the environment geometry is fixed for a Scenario's lifetime (the same
	// assumption initialVias already bakes in).
	tracePose  env.Pose
	traceValid bool
	// viaOrder/viaHead implement FIFO eviction for the non-initial entries
	// of initialVias, bounding the stable-id map under long mobile runs
	// (new reflecting-wall identities keep appearing as the UE roams); see
	// pathIDsFor.
	viaOrder []int
	viaHead  int
	// traceCache memoizes the ray tracer's enumeration half for this pair
	// (see env.TraceCache); lastModel/lastLoss let a fully quiescent slot
	// (same pose, same blockage losses, no fading, same model) skip the
	// channel rewrite entirely. Both are incremental-engine state: with
	// MMR_INCREMENTAL=off neither is ever consulted.
	traceCache *env.TraceCache
	lastModel  *channel.Model
	lastLoss   []float64
	lastValid  bool
}

// Fading is a per-path Gauss-Markov shadowing process in dB:
// F(t+Δ) = ρ·F(t) + √(1−ρ²)·σ·N(0,1) with ρ = exp(−Δ/τc).
type Fading struct {
	SigmaDB    float64 // steady-state standard deviation
	CoherenceS float64 // coherence time τc (seconds)
	Rng        *rand.Rand

	state map[int]float64
	// ids is the sorted list of tracked path ids, maintained incrementally
	// (insertion on first sight) so every advance draws innovations in the
	// same ascending-id order the old sort-the-keys loop produced — without
	// rebuilding and sorting a fresh slice each timestamp.
	ids   []int
	lastT float64
}

// NewFading returns a fading process with the given parameters.
func NewFading(sigmaDB, coherenceS float64, rng *rand.Rand) *Fading {
	return &Fading{SigmaDB: sigmaDB, CoherenceS: coherenceS, Rng: rng, state: map[int]float64{}}
}

// at advances the process to time t and returns the fade (dB, signed) for
// the given stable path id. Calls must have non-decreasing t.
func (f *Fading) at(pathID int, t float64) float64 {
	dt := t - f.lastT
	if dt < 0 {
		dt = 0
	}
	// Advance all tracked paths once per new timestamp, in ascending id
	// order (f.ids is kept sorted) so the innovation draws are
	// deterministic (map iteration order is randomized in Go).
	if dt > 0 {
		rho := math.Exp(-dt / f.CoherenceS)
		innov := math.Sqrt(1 - rho*rho)
		for _, id := range f.ids {
			f.state[id] = rho*f.state[id] + innov*f.SigmaDB*f.Rng.NormFloat64()
		}
		f.lastT = t
	}
	v, ok := f.state[pathID]
	if !ok {
		v = f.SigmaDB * f.Rng.NormFloat64()
		f.state[pathID] = v
		i := sort.SearchInts(f.ids, pathID)
		f.ids = append(f.ids, 0)
		copy(f.ids[i+1:], f.ids[i:])
		f.ids[i] = pathID
	}
	return v
}

// Validate checks the scenario, its numerology and its blockage schedule.
func (sc *Scenario) Validate() error {
	if sc.Env == nil || sc.UE == nil || sc.TxArray == nil {
		return fmt.Errorf("sim: scenario missing env/UE/array")
	}
	if sc.Duration <= 0 {
		return fmt.Errorf("sim: non-positive duration %g", sc.Duration)
	}
	if err := sc.Num.Validate(); err != nil {
		return err
	}
	return sc.Blockage.Validate()
}

// ChannelAt builds the true channel snapshot at time t: ray-traced paths
// for the UE's pose with the blockage schedule applied. Blockage events
// index paths by their rank in the *initial* (t = 0) trace; ranks are
// matched across time by reflecting wall identity so a moving UE keeps a
// stable path labeling.
func (sc *Scenario) ChannelAt(t float64) *channel.Model {
	m := &channel.Model{}
	sc.ChannelInto(t, m)
	return m
}

// ChannelInto rebuilds m in place as the channel snapshot at time t — the
// allocation-free variant of ChannelAt for persistent-model slot loops
// (Runner.RunMulti, the station serving engine). The model should have
// Reuse = true so path/response storage is recycled across slots. The trace
// runs ONCE per slot (the stable-id mapping reuses the same paths instead of
// re-tracing), appending into the scenario's retained trace buffer, and the
// paths are copied into m's existing capacity; in steady state the slot
// loop does not touch the allocator.
//
// The scenario's per-slot scratch (trace buffer, stable-id map) is reused
// by every call, so a Scenario must never be shared between goroutines.
func (sc *Scenario) ChannelInto(t float64, m *channel.Model) {
	pose := sc.UE.At(t)
	posed := sc.traceValid && pose == sc.tracePose
	if !posed {
		if incr.Enabled {
			if sc.traceCache == nil {
				sc.traceCache = &env.TraceCache{}
			}
			sc.traceBuf = sc.Env.TraceAppendCached(sc.traceCache, sc.traceBuf[:0], sc.GNB, pose)
		} else {
			sc.traceBuf = sc.Env.TraceAppend(sc.traceBuf[:0], sc.GNB, pose)
		}
		sc.tracePose = pose
		sc.traceValid = true
	}
	paths := sc.traceBuf
	if sc.MaxPaths > 0 && len(paths) > sc.MaxPaths {
		paths = paths[:sc.MaxPaths]
	}
	// Quiescent fast path: same pose, same model as the previous write, no
	// fading (fading draws fresh innovations every new timestamp, so a
	// fading slot is never quiescent), and every blockage loss equal to the
	// value already written into m — then m holds bit-for-bit the state this
	// call would produce, every write below is a no-op by value, and the
	// model's stamp legitimately stays unchanged (which is what lets the
	// manager's SNR fold and the station's batch-entry pass skip too).
	if incr.Enabled && posed && sc.lastValid && m == sc.lastModel && sc.Fading == nil {
		if len(sc.Blockage) == 0 {
			return
		}
		if len(sc.lastLoss) == len(paths) {
			ids := sc.pathIDsFor(paths)
			same := true
			for i := range paths {
				if sc.Blockage.LossAt(ids[i], t) != sc.lastLoss[i] {
					same = false
					break
				}
			}
			if same {
				return
			}
		}
	}
	m.Band = sc.Env.Band
	m.Tx = sc.TxArray
	m.Rx = sc.UEArray
	m.RxWeights = nil
	if cap(m.Paths) < len(paths) {
		m.Paths = make([]channel.PathState, len(paths))
	}
	m.Paths = m.Paths[:len(paths)]
	for i, p := range paths {
		m.Paths[i] = channel.PathState{Path: p}
	}
	if len(sc.Blockage) != 0 || sc.Fading != nil {
		ids := sc.pathIDsFor(paths)
		for i := range m.Paths {
			m.Paths[i].ExtraLossDB += sc.Blockage.LossAt(ids[i], t)
			if sc.Fading != nil {
				m.Paths[i].ExtraLossDB += sc.Fading.at(ids[i], t)
			}
		}
	}
	// Record what this write put into m so the next call can prove itself
	// quiescent. With fading the slot can never be skipped, so nothing is
	// recorded (ExtraLossDB would include the fade, not just blockage).
	if incr.Enabled && sc.Fading == nil {
		if cap(sc.lastLoss) < len(paths) {
			sc.lastLoss = make([]float64, len(paths))
		}
		sc.lastLoss = sc.lastLoss[:len(paths)]
		for i := range m.Paths {
			sc.lastLoss[i] = m.Paths[i].ExtraLossDB
		}
		sc.lastModel = m
		sc.lastValid = true
	} else {
		sc.lastValid = false
	}
	m.BumpStamp()
	// No InvalidateCache here: every mutation above is visible to the
	// model's per-path snapshot validation, and leaving the epoch alone is
	// what lets a loss-only slot (fading/blockage on static geometry) renew
	// its cached coefficients in place instead of rebuilding steering
	// vectors and carrier phasors.
}

// maxStableIDs bounds the stable-id map: a long mobile run keeps meeting
// new reflecting-wall identities (every wall pair at order 2), and without
// a cap initialVias grows for the scenario's whole lifetime. The cap is far
// above any realistic concurrent path-identity working set, so eviction
// only ever touches identities that left the trace long ago.
const maxStableIDs = 4096

// pathIDsFor maps a freshly traced path list onto the initial path ranks
// (by reflecting-wall identity, see env.Path.ID). The returned slice reuses
// the scenario's id buffer — valid only until the next call.
//
// The map is bounded at maxStableIDs entries with deterministic FIFO
// eviction of non-initial identities (insertion order, oldest first); the
// t = 0 entries are pinned forever because blockage schedules address paths
// by initial rank. An evicted identity that reappears is assigned a fresh
// id — its fading state restarts, exactly as for a first sighting.
func (sc *Scenario) pathIDsFor(paths []env.Path) []int {
	if sc.initialVias == nil {
		init := sc.Env.Trace(sc.GNB, sc.UE.At(0))
		if sc.MaxPaths > 0 && len(init) > sc.MaxPaths {
			init = init[:sc.MaxPaths]
		}
		sc.initialVias = map[int]int{}
		for rank, p := range init {
			sc.initialVias[p.ID()] = rank
		}
		sc.nextID = len(init)
	}
	if cap(sc.idsBuf) < len(paths) {
		sc.idsBuf = make([]int, len(paths))
	}
	ids := sc.idsBuf[:len(paths)]
	for i, p := range paths {
		id, ok := sc.initialVias[p.ID()]
		if !ok {
			if len(sc.initialVias) >= maxStableIDs && sc.viaHead < len(sc.viaOrder) {
				delete(sc.initialVias, sc.viaOrder[sc.viaHead])
				sc.viaHead++
				// Compact the FIFO's dead prefix once it spans a full cap's
				// worth of evictions, keeping the backing array bounded.
				if sc.viaHead >= maxStableIDs {
					n := copy(sc.viaOrder, sc.viaOrder[sc.viaHead:])
					sc.viaOrder = sc.viaOrder[:n]
					sc.viaHead = 0
				}
			}
			id = sc.nextID
			sc.initialVias[p.ID()] = id
			sc.nextID++
			sc.viaOrder = append(sc.viaOrder, p.ID())
		}
		ids[i] = id
	}
	return ids
}

// Result is one scheme's outcome over a scenario.
type Result struct {
	Summary link.Summary
	// Series holds the per-slot outcomes in slot order (nil unless
	// KeepSeries was set).
	Series []Slot
	Times  []float64
}

// Runner executes scenarios.
type Runner struct {
	// KeepSeries retains per-slot outcomes (memory ∝ slots).
	KeepSeries bool
	// Warmup excludes the first seconds from the metrics (the paper trains
	// links before its measurement window); the schemes still run during
	// warmup.
	Warmup float64
}

// Run replays the scenario against each scheme independently (each scheme
// sees the same channel realizations) and returns per-scheme results keyed
// by Scheme.Name. It is RunMulti over the one-gNB world, every scheme
// pinned to gNB 0.
func (r Runner) Run(sc *Scenario, schemes ...Scheme) (map[string]Result, error) {
	multi := make([]MultiScheme, len(schemes))
	for i, s := range schemes {
		multi[i] = Pinned{Scheme: s}
	}
	return r.RunMulti([]*Scenario{sc}, multi...)
}

// RunMulti replays a multi-gNB world — one Scenario per gNB, all on one
// slot grid — against each scheme independently and returns per-scheme
// results keyed by MultiScheme.Name. Each scenario is a self-contained
// per-gNB world (its own blockage schedule addressing its own initial path
// ranks, its own fading process), so the scenarios must share Duration and
// Num and must not share a *Fading: path ids restart at 0 in every
// scenario, and a shared process would hand gNB 0's path k and gNB 1's
// path k the same fade.
//
// Scheme names must be distinct, since they key the results.
//
// Each scenario writes one base model per slot. Each scheme steps on its
// own persistent per-gNB models: cloned from the base on the first slot (so
// schemes never share mutable state), then refreshed in place with
// CopyStateFrom and recycled caches (Model.Reuse) every slot after — the
// slot loop is allocation-free in steady state.
func (r Runner) RunMulti(scs []*Scenario, schemes ...MultiScheme) (map[string]Result, error) {
	if len(scs) == 0 {
		return nil, fmt.Errorf("sim: no scenarios")
	}
	for g, sc := range scs {
		if err := sc.Validate(); err != nil {
			return nil, fmt.Errorf("%w (gNB %d)", err, g)
		}
		if sc.Duration != scs[0].Duration || sc.Num != scs[0].Num {
			return nil, fmt.Errorf("sim: gNB %d slot grid (%gs, %+v) differs from gNB 0 (%gs, %+v)",
				g, sc.Duration, sc.Num, scs[0].Duration, scs[0].Num)
		}
		for h := 0; h < g; h++ {
			if sc.Fading != nil && sc.Fading == scs[h].Fading {
				return nil, fmt.Errorf("sim: gNBs %d and %d share one *Fading", h, g)
			}
		}
	}
	if len(schemes) == 0 {
		return nil, fmt.Errorf("sim: no schemes")
	}
	for i, s := range schemes {
		for _, prev := range schemes[:i] {
			if s.Name() == prev.Name() {
				return nil, fmt.Errorf("sim: two schemes named %q (results are keyed by name)", s.Name())
			}
		}
	}
	slotDur := scs[0].Num.SlotDuration()
	nSlots := int(math.Ceil((scs[0].Duration + r.Warmup) / slotDur))
	meters := make([]*link.Meter, len(schemes))
	results := make([]Result, len(schemes))
	models := make([][]*channel.Model, len(schemes))
	for i := range schemes {
		meters[i] = link.NewMeter()
		models[i] = make([]*channel.Model, len(scs))
	}
	bases := make([]*channel.Model, len(scs))
	for g := range bases {
		bases[g] = &channel.Model{}
	}
	for s := 0; s < nSlots; s++ {
		t := float64(s) * slotDur
		for g, sc := range scs {
			sc.ChannelInto(t, bases[g])
		}
		for i, scheme := range schemes {
			ms := models[i]
			for g, base := range bases {
				if ms[g] == nil {
					ms[g] = base.Clone()
					ms[g].Reuse = true
				} else {
					ms[g].CopyStateFrom(base)
				}
			}
			slot := scheme.StepMulti(t, ms)
			if t < r.Warmup {
				continue
			}
			meters[i].Record(slot.SNRdB, slot.Training, slot.ThroughputBps)
			if r.KeepSeries {
				results[i].Series = append(results[i].Series, slot)
				results[i].Times = append(results[i].Times, t)
			}
		}
	}
	out := make(map[string]Result, len(schemes))
	for i, scheme := range schemes {
		results[i].Summary = meters[i].Summarize()
		out[scheme.Name()] = results[i]
	}
	return out, nil
}

// Pinned adapts a single-gNB Scheme to MultiScheme by pinning it to one
// gNB — the no-handover baseline, and how Run drives a Scheme.
type Pinned struct {
	Scheme Scheme
	GNB    int
}

// Name implements MultiScheme.
func (p Pinned) Name() string { return p.Scheme.Name() }

// StepMulti implements MultiScheme.
func (p Pinned) StepMulti(t float64, ms []*channel.Model) Slot {
	return p.Scheme.Step(t, ms[p.GNB])
}
