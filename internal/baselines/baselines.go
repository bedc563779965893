// Package baselines implements the comparison schemes the paper evaluates
// mmReliable against:
//
//   - SingleBeamReactive — the conventional single-beam link with fast
//     reactive beam training (Hassanieh et al., SIGCOMM'18 style
//     logarithmic search) triggered only after the SNR collapses.
//   - BeamSpy — single beam with a stored spatial profile: on outage it
//     switches to the best alternate path remembered from the last full
//     sweep without retraining (Sur et al., NSDI'16).
//   - WideBeam — a reduced-aperture wide beam that trades gain for angular
//     coverage so mobility hurts less but SNR is permanently lower.
//   - Oracle — maximum-ratio transmission on the true per-antenna CSI every
//     slot with zero overhead: the unattainable upper bound.
//
// All baselines observe the channel exactly the way the mmReliable manager
// does: through their own noisy, impaired sounder probes, spending training
// slots for every sounding.
package baselines

import (
	"math"
	"math/cmplx"
	"math/rand"

	"mmreliable/internal/antenna"
	"mmreliable/internal/channel"
	"mmreliable/internal/cmx"
	"mmreliable/internal/dsp"
	"mmreliable/internal/link"
	"mmreliable/internal/nr"
	"mmreliable/internal/sim"
)

// Common holds the shared plumbing of the baseline schemes.
type Common struct {
	name    string
	u       *antenna.ULA
	budget  link.Budget
	num     nr.Numerology
	sounder *nr.Sounder
	cb      *antenna.Codebook
	offsets []float64

	w               cmx.Vector
	txLin, noiseLin float64    // hoisted budget.SNRTerms()
	wbRe, wbIm      []float64  // planar wideband-response scratch for snr()
	csi             cmx.Vector // probe scratch for scanUE
	sweep           nr.SweepScratch
	trainRemaining  int
	onTrainDone     func(t float64, m *channel.Model)
	badSlots        int // consecutive below-threshold data slots

	// Directional-UE state (nil for a quasi-omni UE).
	ueArr *antenna.ULA
	ueCB  *antenna.Codebook
	ueW   cmx.Vector

	// TrainingSlots counts slots consumed by beam management.
	TrainingSlots int
	// Retrains counts training invocations.
	Retrains int
}

// outageConfirmSlots is how many consecutive below-threshold slots a
// reactive scheme needs before it declares outage and reacts (BLER
// feedback latency).
const outageConfirmSlots = 8

// newCommon builds the shared plumbing on nr's SSB training setup, the
// one the mmReliable manager trains with.
func newCommon(name string, u *antenna.ULA, budget link.Budget, num nr.Numerology, rng *rand.Rand) (*Common, error) {
	s, err := nr.NewSounder(num, budget.BandwidthHz, nr.NumSC, budget.NoiseToTxAmpRatio(), nr.DefaultImpairments(), rng)
	if err != nil {
		return nil, err
	}
	scan := dsp.Rad(nr.ScanRangeDeg)
	c := &Common{
		name:    name,
		u:       u,
		budget:  budget,
		num:     num,
		sounder: s,
		cb:      antenna.DFTCodebook(u, nr.CodebookSize, -scan, scan),
		offsets: channel.SubcarrierOffsets(budget.BandwidthHz, nr.NumSC),
		wbRe:    make([]float64, nr.NumSC),
		wbIm:    make([]float64, nr.NumSC),
		csi:     make(cmx.Vector, nr.NumSC),
	}
	c.txLin, c.noiseLin = budget.SNRTerms()
	return c, nil
}

// ssbWaitSlots returns the slots to wait from time t until the next SSB
// occasion: a reactive scheme can only begin beam training there.
func (c *Common) ssbWaitSlots(t float64) int {
	next := math.Ceil(t/nr.SSBPeriod) * nr.SSBPeriod
	return int((next - t) / c.num.SlotDuration())
}

// bindUE wires the scheme's UE combining beam into the channel snapshot,
// building the UE codebook on first sight of a directional UE.
func (c *Common) bindUE(m *channel.Model) {
	if m.Rx == nil {
		return
	}
	if c.ueCB == nil {
		c.ueArr = m.Rx
		scan := dsp.Rad(nr.ScanRangeDeg)
		c.ueCB = antenna.DFTCodebook(m.Rx, 2*m.Rx.N+1, -scan, scan)
	}
	m.RxWeights = c.ueW
}

// ueScanSlots returns the extra training slots a directional UE costs.
func (c *Common) ueScanSlots() int {
	if c.ueCB == nil {
		return 0
	}
	return c.ueCB.Len() * nr.CSIRSSlots
}

// scanUE sweeps the UE codebook under TX beam w and locks the best
// combining beam.
func (c *Common) scanUE(m *channel.Model, w cmx.Vector) {
	if c.ueCB == nil || w == nil {
		return
	}
	bestIdx, bestRSS := -1, 0.0
	for i, v := range c.ueCB.Weights {
		m.RxWeights = v
		if r := nr.RSS(c.sounder.ProbeInto(m, w, c.csi)); bestIdx == -1 || r > bestRSS {
			bestIdx, bestRSS = i, r
		}
	}
	c.ueW = c.ueArr.SingleBeam(c.ueCB.Angles[bestIdx])
	m.RxWeights = c.ueW
}

// outageConfirmed folds one below-threshold data slot into the detector
// and reports whether the outage is confirmed. Healthy slots reset it.
func (c *Common) outageConfirmed(bad bool) bool {
	if !bad {
		c.badSlots = 0
		return false
	}
	c.badSlots++
	if c.badSlots >= outageConfirmSlots {
		c.badSlots = 0
		return true
	}
	return false
}

// Name implements sim.Scheme.
func (c *Common) Name() string { return c.name }

func (c *Common) snr(m *channel.Model) float64 {
	if c.w == nil {
		return math.Inf(-1)
	}
	m.EffectiveWidebandSplitInto(c.w, c.offsets, c.wbRe, c.wbIm)
	return link.WidebandSNRdB(c.wbRe, c.wbIm, c.txLin, c.noiseLin)
}

func (c *Common) slotsFor(airTime float64) int {
	return int(math.Max(1, math.Ceil(airTime/c.num.SlotDuration())))
}

func (c *Common) beginOp(slots int, done func(t float64, m *channel.Model)) {
	if slots < 1 {
		slots = 1
	}
	c.trainRemaining = slots
	c.onTrainDone = done
}

// stepTraining advances a pending training op; returns a slot and true if
// this slot was consumed by training.
func (c *Common) stepTraining(t float64, m *channel.Model) (sim.Slot, bool) {
	if c.trainRemaining <= 0 {
		return sim.Slot{}, false
	}
	c.trainRemaining--
	c.TrainingSlots++
	if c.trainRemaining == 0 && c.onTrainDone != nil {
		done := c.onTrainDone
		c.onTrainDone = nil
		done(t, m)
	}
	return sim.Slot{SNRdB: c.snr(m), Training: true}, true
}

func (c *Common) dataSlot(m *channel.Model) sim.Slot {
	snr := c.snr(m)
	return sim.Slot{SNRdB: snr, ThroughputBps: link.Throughput(snr, c.budget.BandwidthHz, 0)}
}

// SingleBeamReactive is the conventional reactive single-beam baseline.
type SingleBeamReactive struct {
	*Common
	// FastTraining uses the Hassanieh-style logarithmic search time instead
	// of an exhaustive sweep.
	FastTraining bool
}

// NewSingleBeamReactive builds the reactive baseline.
func NewSingleBeamReactive(u *antenna.ULA, budget link.Budget, num nr.Numerology, rng *rand.Rand) (*SingleBeamReactive, error) {
	c, err := newCommon("reactive", u, budget, num, rng)
	if err != nil {
		return nil, err
	}
	return &SingleBeamReactive{Common: c, FastTraining: true}, nil
}

func (b *SingleBeamReactive) trainingSlots() int {
	o := nr.OverheadModel{Num: b.num}
	if b.FastTraining {
		return b.slotsFor(o.NRTrainingTime(b.u.N))
	}
	return b.slotsFor(o.ExhaustiveTrainingTime(b.cb.Len()))
}

func (b *SingleBeamReactive) beginTrain(t float64) {
	b.Retrains++
	b.beginOp(b.ssbWaitSlots(t)+b.trainingSlots()+b.ueScanSlots(), func(t2 float64, m *channel.Model) {
		if b.FastTraining {
			// Actual hierarchical (logarithmic) search, matching the
			// training time the reactive baseline is charged.
			cfg := nr.DefaultHierConfig()
			cfg.Keep = 1
			hres, err := nr.HierSweep(b.sounder, m, b.u, cfg)
			if err != nil || len(hres.Angles) == 0 {
				b.w = nil
				return
			}
			b.w = b.u.SingleBeam(hres.Angles[0])
			b.scanUE(m, b.w)
			return
		}
		res := nr.SweepInto(b.sounder, m, b.cb, 1, 1, 30, &b.sweep)
		if len(res.Peaks) == 0 {
			b.w = nil
			return
		}
		b.w = b.u.SingleBeam(b.cb.Angles[res.Peaks[0]])
		b.scanUE(m, b.w)
	})
}

// Step implements sim.Scheme.
func (b *SingleBeamReactive) Step(t float64, m *channel.Model) sim.Slot {
	b.bindUE(m)
	if slot, ok := b.stepTraining(t, m); ok {
		return slot
	}
	if b.w == nil {
		b.beginTrain(t)
		slot, _ := b.stepTraining(t, m)
		return slot
	}
	slot := b.dataSlot(m)
	if b.outageConfirmed(slot.SNRdB < link.OutageThresholdDB) {
		// Reactive: only now does it notice and retrain (at the next SSB
		// occasion).
		b.beginTrain(t)
	}
	return slot
}

// BeamSpy keeps the spatial profile from its last sweep and, on outage,
// hops to the next-best remembered path before resorting to retraining.
type BeamSpy struct {
	*Common
	profile []int // codebook peak indices from the last sweep, best first
	current int   // position in profile
}

// NewBeamSpy builds the BeamSpy-style baseline.
func NewBeamSpy(u *antenna.ULA, budget link.Budget, num nr.Numerology, rng *rand.Rand) (*BeamSpy, error) {
	c, err := newCommon("beamspy", u, budget, num, rng)
	if err != nil {
		return nil, err
	}
	return &BeamSpy{Common: c}, nil
}

func (b *BeamSpy) beginTrain(t0 float64) {
	b.Retrains++
	slots := b.ssbWaitSlots(t0) + b.slotsFor(float64(b.cb.Len())*b.num.SSBDuration()) + b.ueScanSlots()
	b.beginOp(slots, func(t float64, m *channel.Model) {
		res := nr.SweepInto(b.sounder, m, b.cb, 3, 4, 10, &b.sweep)
		if len(res.Peaks) == 0 {
			b.w = nil
			b.profile = nil
			return
		}
		// Peaks lives in the sweep scratch until the next sweep, which
		// replaces the profile anyway.
		b.profile = res.Peaks
		b.current = 0
		b.w = b.u.SingleBeam(b.cb.Angles[b.profile[0]])
		b.scanUE(m, b.w)
	})
}

// Step implements sim.Scheme.
func (b *BeamSpy) Step(t float64, m *channel.Model) sim.Slot {
	b.bindUE(m)
	if slot, ok := b.stepTraining(t, m); ok {
		return slot
	}
	if b.w == nil {
		b.beginTrain(t)
		slot, _ := b.stepTraining(t, m)
		return slot
	}
	slot := b.dataSlot(m)
	if b.outageConfirmed(slot.SNRdB < link.OutageThresholdDB) {
		if b.current+1 < len(b.profile) {
			// Instant switch to the stored alternate path: one switch slot.
			b.current++
			next := b.profile[b.current]
			b.beginOp(1, func(float64, *channel.Model) {
				b.w = b.u.SingleBeam(b.cb.Angles[next])
			})
		} else {
			b.beginTrain(t)
		}
	}
	return slot
}

// WideBeam is the reduced-aperture widebeam baseline of Fig. 18b.
type WideBeam struct {
	*Common
	// ActiveElements is the sub-aperture used (wider beam, less gain).
	ActiveElements int
	angle          float64
}

// NewWideBeam builds the widebeam baseline with a quarter aperture.
func NewWideBeam(u *antenna.ULA, budget link.Budget, num nr.Numerology, rng *rand.Rand) (*WideBeam, error) {
	c, err := newCommon("widebeam", u, budget, num, rng)
	if err != nil {
		return nil, err
	}
	active := u.N / 4
	if active < 1 {
		active = 1
	}
	return &WideBeam{Common: c, ActiveElements: active}, nil
}

func (b *WideBeam) beginTrain(t0 float64) {
	b.Retrains++
	slots := b.ssbWaitSlots(t0) + b.slotsFor(float64(b.cb.Len())*b.num.SSBDuration()) + b.ueScanSlots()
	b.beginOp(slots, func(t float64, m *channel.Model) {
		res := nr.SweepInto(b.sounder, m, b.cb, 1, 1, 30, &b.sweep)
		if len(res.Peaks) == 0 {
			b.w = nil
			return
		}
		b.angle = b.cb.Angles[res.Peaks[0]]
		b.w = antenna.WideBeam(b.u, b.angle, b.ActiveElements)
		b.scanUE(m, b.w)
	})
}

// Step implements sim.Scheme.
func (b *WideBeam) Step(t float64, m *channel.Model) sim.Slot {
	b.bindUE(m)
	if slot, ok := b.stepTraining(t, m); ok {
		return slot
	}
	if b.w == nil {
		b.beginTrain(t)
		slot, _ := b.stepTraining(t, m)
		return slot
	}
	slot := b.dataSlot(m)
	if b.outageConfirmed(slot.SNRdB < link.OutageThresholdDB) {
		b.beginTrain(t)
	}
	return slot
}

// Oracle applies maximum-ratio transmission on the true per-antenna CSI
// every slot with zero training overhead — an unattainable upper bound that
// calibrates how close the 2- and 3-beam multi-beams come (Fig. 15d).
type Oracle struct {
	name            string
	budget          link.Budget
	txLin, noiseLin float64 // hoisted budget.SNRTerms()
	offsets         []float64
	wbRe, wbIm      []float64 // planar wideband-response scratch
	// cand holds the candidate beam under evaluation and rxW the genie UE
	// beam; both are sized on first use, so Step is allocation-free after.
	cand, rxW cmx.Vector
}

// NewOracle builds the oracle scheme.
func NewOracle(budget link.Budget, numSC int) *Oracle {
	o := &Oracle{
		name:    "oracle",
		budget:  budget,
		offsets: channel.SubcarrierOffsets(budget.BandwidthHz, numSC),
		wbRe:    make([]float64, numSC),
		wbIm:    make([]float64, numSC),
	}
	o.txLin, o.noiseLin = budget.SNRTerms()
	return o
}

// Name implements sim.Scheme.
func (o *Oracle) Name() string { return o.name }

// Step implements sim.Scheme. On a frequency-selective channel the MRT
// weights at the carrier are not the wideband-optimal single weight vector,
// so the oracle evaluates MRT at several in-band frequencies plus each
// path's matched single beam and keeps the best.
func (o *Oracle) Step(t float64, m *channel.Model) sim.Slot {
	// Genie UE combining: matched to the strongest path's true AoA. The
	// channel cache keys RX weights on slice identity, so rewriting the
	// kept buffer in place must invalidate it.
	if m.Rx != nil {
		if k := m.StrongestPath(); k >= 0 {
			if len(o.rxW) != m.Rx.N {
				o.rxW = make(cmx.Vector, m.Rx.N)
			}
			m.RxWeights = m.Rx.SingleBeamInto(m.Paths[k].AoA, o.rxW)
			m.InvalidateCache()
		}
	}
	if len(o.cand) != m.Tx.N {
		o.cand = make(cmx.Vector, m.Tx.N)
	}
	// Candidates in order — MRT at three in-band frequencies, then each
	// path's matched single beam — each evaluated as it is built.
	best := math.Inf(-1)
	for _, f := range [...]float64{0, -o.budget.BandwidthHz / 4, o.budget.BandwidthHz / 4} {
		h := m.PerAntennaCSIInto(f, o.cand)
		if h.Norm() > 0 {
			for i := range h {
				h[i] = cmplx.Conj(h[i])
			}
			if snr := o.snr(m, h.Normalize()); snr > best {
				best = snr
			}
		}
	}
	for i := range m.Paths {
		if snr := o.snr(m, m.Tx.SingleBeamInto(m.Paths[i].AoD, o.cand)); snr > best {
			best = snr
		}
	}
	return sim.Slot{SNRdB: best, ThroughputBps: link.Throughput(best, o.budget.BandwidthHz, 0)}
}

// snr returns the wideband effective SNR of m under TX beam w.
func (o *Oracle) snr(m *channel.Model, w cmx.Vector) float64 {
	m.EffectiveWidebandSplitInto(w, o.offsets, o.wbRe, o.wbIm)
	return link.WidebandSNRdB(o.wbRe, o.wbIm, o.txLin, o.noiseLin)
}

// Sanity guards: all baselines implement sim.Scheme.
var (
	_ sim.Scheme = (*SingleBeamReactive)(nil)
	_ sim.Scheme = (*BeamSpy)(nil)
	_ sim.Scheme = (*WideBeam)(nil)
	_ sim.Scheme = (*Oracle)(nil)
)
