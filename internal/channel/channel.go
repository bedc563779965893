// Package channel turns propagation path lists into the channel observables
// the rest of the stack consumes: per-antenna frequency-domain CSI, the
// effective scalar channel under a given beamforming vector, and wideband
// (multi-subcarrier) responses.
//
// The model follows the paper's geometric formulation (Eq. 25/26): with L
// paths, the channel at TX antenna n and baseband frequency offset f is
//
//	h(f)[n] = Σ_ℓ g_ℓ · e^{−j2π(fc+f)τ_ℓ} · a(φ_ℓ)[n] · r_ℓ(f)
//
// where g_ℓ is the real path amplitude, τ_ℓ the time of flight, a the TX
// steering vector, and r_ℓ the receive-side factor (1 for a quasi-omni UE,
// or the RX array response combined with the UE beam).
package channel

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sync/atomic"
	"unsafe"

	"mmreliable/internal/antenna"
	"mmreliable/internal/cmx"
	"mmreliable/internal/dsp"
	"mmreliable/internal/env"
)

// PathState is a propagation path plus its time-varying link conditions.
type PathState struct {
	env.Path
	ExtraLossDB float64 // additional loss (e.g. a blocker occluding the path)
	ExtraPhase  float64 // additional phase (radians), for scripted channels
}

// Model is a frozen snapshot of the channel between one gNB array and one
// UE. The zero value is unusable; construct with New or a helper.
type Model struct {
	Band env.Band
	Tx   *antenna.ULA
	Rx   *antenna.ULA // nil for a quasi-omni UE
	// RxWeights is the UE combining beam; ignored when Rx is nil. When Rx
	// is non-nil and RxWeights is nil, the UE is treated as quasi-omni
	// (single reference element).
	RxWeights cmx.Vector
	Paths     []PathState

	// Reuse opts this model into single-goroutine cache recycling: when
	// set, a cache rebuild overwrites the previous snapshot's backing
	// arrays in place (including one contiguous steering buffer for all
	// paths) instead of allocating a fresh immutable snapshot, so the
	// per-slot mutate→rebuild cycle of a simulation runs allocation-free
	// in steady state. A Reuse model must NOT be shared across goroutines:
	// the in-place rebuild would race with concurrent readers of the old
	// snapshot. Leave false (the default) for any model that parallel
	// workers might share.
	Reuse bool

	// epoch is bumped by InvalidateCache; the factored-kernel cache below
	// is only reused when its epoch matches. Mutators that go around the
	// cheap per-path snapshot check (e.g. editing RxWeights elements in
	// place, or mutating Tx geometry) must call InvalidateCache.
	epoch uint64
	// stamp is the model's content version: writers bump it (BumpStamp,
	// CopyStateFrom, InvalidateCache) whenever the channel state may have
	// changed, and consumers key derived-value caches on it (the manager's
	// per-slot SNR fold, the station's batch-entry skip). An unchanged stamp
	// guarantees unchanged content; the converse need not hold — a bump with
	// identical content merely costs one redundant recompute.
	stamp uint64
	// cache holds a *modelCache built lazily on first wideband evaluation;
	// it is read and replaced atomically so concurrent READ-ONLY use of one
	// Model (the parallel experiment runner's worker pool) is race-free.
	// The cached snapshot is immutable once published.
	cache unsafe.Pointer
}

// New returns a channel model over the given band and TX array with the
// supplied paths and an omni receiver.
func New(band env.Band, tx *antenna.ULA, paths []env.Path) *Model {
	ps := make([]PathState, len(paths))
	for i, p := range paths {
		ps[i] = PathState{Path: p}
	}
	return &Model{Band: band, Tx: tx, Paths: ps}
}

// Validate checks internal consistency.
func (m *Model) Validate() error {
	if m.Tx == nil {
		return fmt.Errorf("channel: nil TX array")
	}
	if err := m.Tx.Validate(); err != nil {
		return err
	}
	if m.Rx != nil {
		if err := m.Rx.Validate(); err != nil {
			return err
		}
		if m.RxWeights != nil && len(m.RxWeights) != m.Rx.N {
			return fmt.Errorf("channel: RX weights length %d != %d elements", len(m.RxWeights), m.Rx.N)
		}
	}
	if m.Band.CarrierHz <= 0 {
		return fmt.Errorf("channel: non-positive carrier %g", m.Band.CarrierHz)
	}
	return nil
}

// PathGain returns the scalar complex gain of path index ℓ at baseband
// frequency offset fOff (Hz from the carrier), including the receive-side
// factor.
//
// The phase is computed in split form — the frequency-independent carrier
// phasor e^{j(−2π·fc·τ + extra)} and the baseband ramp phasor e^{−j2π·fOff·τ}
// are built separately and multiplied — so the direct evaluation and the
// factored wideband kernel (EffectiveWidebandSplitInto) share the same rounding
// pattern and agree to well under 1e-12. Summing the phases as floats first
// (carrierPhase ± thousands of radians plus a ±hundreds-of-radians ramp)
// would round the total at the ulp of the carrier phase, a few 1e-12 rad,
// putting that much noise between the two forms.
func (m *Model) PathGain(l int, fOff float64) complex128 {
	p := m.Paths[l]
	amp := math.Pow(10, -(p.LossDB+p.ExtraLossDB)/20)
	g := cmplx.Rect(amp, m.carrierPhase(l))
	if fOff != 0 {
		g *= cmplx.Rect(1, -2*math.Pi*fOff*p.Delay)
	}
	return g * m.rxFactor(p.AoA)
}

// carrierPhase returns the frequency-independent phase of path ℓ at the
// carrier: −2π·fc·τ + ExtraPhase (+π for a PhasePi reflection).
func (m *Model) carrierPhase(l int) float64 {
	p := m.Paths[l]
	phase := -2*math.Pi*m.Band.CarrierHz*p.Delay + p.ExtraPhase
	if p.PhasePi {
		phase += math.Pi
	}
	return phase
}

func (m *Model) rxFactor(aoa float64) complex128 {
	if m.Rx == nil || m.RxWeights == nil {
		return 1
	}
	return m.Rx.SteeringInto(aoa, nil).Dot(m.RxWeights)
}

// PerAntennaCSI returns h(fOff)[n] for each TX antenna n — the quantity the
// oracle beamformer needs and that real analog arrays cannot observe
// directly (one RF chain). It is PerAntennaCSIInto with a fresh vector.
func (m *Model) PerAntennaCSI(fOff float64) cmx.Vector {
	return m.PerAntennaCSIInto(fOff, nil)
}

// PerAntennaCSIInto is PerAntennaCSI writing into dst (allocated when nil;
// otherwise its length must be Tx.N), the per-slot oracle's form.
func (m *Model) PerAntennaCSIInto(fOff float64, dst cmx.Vector) cmx.Vector {
	n := m.Tx.N
	h := dst
	if h == nil {
		h = make(cmx.Vector, n)
	}
	if len(h) != n {
		panic(fmt.Sprintf("channel: per-antenna CSI dst length %d != %d elements", len(h), n))
	}
	for i := range h {
		h[i] = 0
	}
	c := m.pathCache()
	for l := range m.Paths {
		g := m.PathGain(l, fOff)
		if g == 0 {
			continue
		}
		re, im := c.steerRe[l*n:(l+1)*n], c.steerIm[l*n:(l+1)*n]
		for i := range h {
			h[i] += g * complex(re[i], im[i])
		}
	}
	return h
}

// Effective returns the scalar effective channel h(fOff)ᵀw under TX beam w.
// This is what a single-RF-chain receiver observes on a pilot.
func (m *Model) Effective(w cmx.Vector, fOff float64) complex128 {
	var y complex128
	for l := range m.Paths {
		g := m.PathGain(l, fOff)
		if g == 0 {
			continue
		}
		y += g * m.Tx.SteeringInto(m.Paths[l].AoD, nil).Dot(w)
	}
	return y
}

// ---------------------------------------------------------------------------
// Factored wideband kernel.
//
// Effective(w, f) = Σ_ℓ g_ℓ(f)·(a(φ_ℓ)ᵀw) separates into a frequency-
// independent per-path coefficient and a linear frequency ramp:
//
//	g_ℓ(f)·(a(φ_ℓ)ᵀw) = [amp_ℓ·e^{jθ_ℓ}·r_ℓ·(a(φ_ℓ)ᵀw)] · e^{−j2π f τ_ℓ}
//
// with θ_ℓ the carrier phase and r_ℓ the RX factor. The bracket is computed
// once per call (one O(N) dot per path); the uniform-grid frequency sweep
// runs on dsp.PhasorRampAxpy, a unit-phasor recurrence re-seeded from
// math.Sincos every dsp.PhasorReseed subcarriers, so accumulated rounding
// drift stays below ~reseed·ε ≈ 1e-14 instead of growing O(nsc·ε).
// Everything that does not depend on the beam w — the coefficient
// amp·e^{jθ}·r and the steering vector a(φ_ℓ) — is cached on the Model (see
// pathCache).
// ---------------------------------------------------------------------------

// pathSnap records the per-path inputs a cached factor was derived from;
// a mismatch with the live PathState invalidates the cache.
type pathSnap struct {
	lossDB, extraLoss, extraPhase, delay, aoD, aoA float64
	phasePi                                        bool
}

// modelCache is the immutable frequency-independent per-path state of one
// Model snapshot. It is published through an atomic pointer: concurrent
// read-only users of a Model share one cache without locks, and a stale
// cache is detected by the epoch and the per-path snapshots.
type modelCache struct {
	epoch   uint64
	carrier float64
	tx      *antenna.ULA
	rx      *antenna.ULA
	rxHead  *complex128 // first element of RxWeights at build time (nil if none)
	rxLen   int
	snaps   []pathSnap
	coef    []complex128 // amp·e^{jθ}·rxFactor; 0 for dead paths
	delays  []float64
	// Loss-independent factors of coef, kept so a loss-only mutation (per-
	// slot fading/blockage on an otherwise static geometry) refreshes coef
	// without re-deriving steering vectors, carrier phases, or RX dots:
	// unitRe/unitIm hold e^{jθ_ℓ} (θ the carrier phase) and rxf the receive
	// factor, so coef[l] = amp·(unitRe,unitIm)·rxf[l] in the exact operation
	// order of a full rebuild.
	rxf            []complex128
	unitRe, unitIm []float64
	// steerRe/steerIm are the cached steering vectors a(φ_ℓ) in planar
	// layout (path l occupies [l·N, (l+1)·N)), the rows the wideband kernel
	// consumes directly.
	steerRe, steerIm []float64
	// reuse marks a cache built for a Reuse model: only such a cache may be
	// refilled in place (see Model.Reuse). scratch is the interleaved
	// steering vector each row and receive factor is synthesized into.
	reuse   bool
	scratch cmx.Vector
}

// valid reports whether c still describes m. The per-path snapshot compare
// is O(L) float equality checks (L is 2–4 in every scenario) — far cheaper
// than one steering dot — and catches direct mutation of
// Paths[l].ExtraLossDB/ExtraPhase even without an InvalidateCache call.
// RxWeights are compared by slice identity: rebinding a different UE beam
// (m.RxWeights = v) is caught, in-place element edits require
// InvalidateCache.
func (c *modelCache) valid(m *Model) bool {
	if !c.geomValid(m) {
		return false
	}
	for i := range c.snaps {
		p := &m.Paths[i]
		s := &c.snaps[i]
		if s.lossDB != p.LossDB || s.extraLoss != p.ExtraLossDB {
			return false
		}
	}
	return true
}

// geomValid is valid minus the per-path loss compare: it reports whether
// everything the loss-independent cached factors (steering, carrier phasor,
// RX factor, delays) were derived from still matches m. When geomValid holds
// but valid does not, only losses moved — the per-slot fading/blockage case —
// and refreshLoss can renew coef in place without a full rebuild.
func (c *modelCache) geomValid(m *Model) bool {
	if c.epoch != m.epoch || c.carrier != m.Band.CarrierHz || c.tx != m.Tx || c.rx != m.Rx {
		return false
	}
	var head *complex128
	if len(m.RxWeights) > 0 {
		head = &m.RxWeights[0]
	}
	if c.rxHead != head || c.rxLen != len(m.RxWeights) {
		return false
	}
	if len(c.snaps) != len(m.Paths) {
		return false
	}
	for i := range c.snaps {
		p := &m.Paths[i]
		s := &c.snaps[i]
		if s.extraPhase != p.ExtraPhase || s.delay != p.Delay ||
			s.aoD != p.AoD || s.aoA != p.AoA || s.phasePi != p.PhasePi {
			return false
		}
	}
	return true
}

// refreshLoss renews the loss-dependent slice of the cache — amp and coef —
// from the cached unit carrier phasors and RX factors, in the exact
// operation order of a full rebuild (amp·cosθ, amp·sinθ, complex multiply by
// rxf), so a loss-only refresh and a rebuild produce identical bits. Only
// called on Reuse models (single goroutine), which makes the in-place
// mutation of the published cache safe.
func (c *modelCache) refreshLoss(m *Model) {
	for l := range m.Paths {
		p := &m.Paths[l]
		c.snaps[l].lossDB = p.LossDB
		c.snaps[l].extraLoss = p.ExtraLossDB
		amp := dsp.AmpFromLossDB(p.LossDB + p.ExtraLossDB)
		c.coef[l] = complex(amp*c.unitRe[l], amp*c.unitIm[l]) * c.rxf[l]
	}
}

// InvalidateCache marks the factored-kernel cache stale. Callers that
// mutate path state through the exported fields get automatic invalidation
// via the per-path snapshot check; InvalidateCache is the explicit escape
// hatch for mutations the snapshot cannot see (in-place RxWeights element
// edits, Tx/Rx geometry changes). It requires the same exclusive access as
// any other Model mutation.
func (m *Model) InvalidateCache() { m.epoch++; m.stamp++ }

// Stamp returns the model's content version (see the stamp field).
func (m *Model) Stamp() uint64 { return m.stamp }

// BumpStamp records a content change for stamp-keyed consumers without
// invalidating the factored-kernel cache — the per-path snapshot validation
// already sees ordinary Paths/ExtraLossDB mutations.
func (m *Model) BumpStamp() { m.stamp++ }

// pathCache returns a valid frequency-independent path cache, rebuilding it
// if the model changed since the last build. Concurrent readers may race to
// rebuild an identical cache; the atomic publish keeps that benign.
func (m *Model) pathCache() *modelCache {
	c := (*modelCache)(atomic.LoadPointer(&m.cache))
	if c != nil && c.valid(m) {
		return c
	}
	if m.Reuse && c != nil && c.reuse && c.geomValid(m) {
		// Loss-only mutation on a single-goroutine model: renew coef in
		// place instead of re-deriving steering/phasors/RX factors.
		c.refreshLoss(m)
		return c
	}
	c = m.buildCache()
	atomic.StorePointer(&m.cache, unsafe.Pointer(c))
	return c
}

func (m *Model) buildCache() *modelCache {
	var c *modelCache
	nP := len(m.Paths)
	if m.Reuse {
		// Single-goroutine model: recycle the previous snapshot's backing
		// arrays in place. Safe only because Reuse forbids concurrent
		// readers of the published cache.
		c = (*modelCache)(atomic.LoadPointer(&m.cache))
	}
	nScratch := m.Tx.N
	if m.Rx != nil && m.Rx.N > nScratch {
		nScratch = m.Rx.N
	}
	if c == nil || !c.reuse || cap(c.snaps) < nP ||
		cap(c.steerRe) < nP*m.Tx.N || cap(c.scratch) < nScratch {
		c = &modelCache{
			snaps:   make([]pathSnap, nP),
			coef:    make([]complex128, nP),
			delays:  make([]float64, nP),
			rxf:     make([]complex128, nP),
			unitRe:  make([]float64, nP),
			unitIm:  make([]float64, nP),
			steerRe: make([]float64, nP*m.Tx.N),
			steerIm: make([]float64, nP*m.Tx.N),
			reuse:   m.Reuse,
			scratch: make(cmx.Vector, nScratch),
		}
	}
	c.snaps = c.snaps[:nP]
	c.coef = c.coef[:nP]
	c.delays = c.delays[:nP]
	c.rxf = c.rxf[:nP]
	c.unitRe = c.unitRe[:nP]
	c.unitIm = c.unitIm[:nP]
	c.steerRe = c.steerRe[:nP*m.Tx.N]
	c.steerIm = c.steerIm[:nP*m.Tx.N]
	c.epoch = m.epoch
	c.carrier = m.Band.CarrierHz
	c.tx = m.Tx
	c.rx = m.Rx
	c.rxHead = nil
	c.rxLen = len(m.RxWeights)
	if len(m.RxWeights) > 0 {
		c.rxHead = &m.RxWeights[0]
	}
	for l := range m.Paths {
		p := &m.Paths[l]
		c.snaps[l] = pathSnap{
			lossDB: p.LossDB, extraLoss: p.ExtraLossDB, extraPhase: p.ExtraPhase,
			delay: p.Delay, aoD: p.AoD, aoA: p.AoA, phasePi: p.PhasePi,
		}
		c.delays[l] = p.Delay
		amp := dsp.AmpFromLossDB(p.LossDB + p.ExtraLossDB)
		rxf := complex128(1)
		if m.Rx != nil && m.RxWeights != nil {
			rxf = m.Rx.SteeringInto(p.AoA, c.scratch[:m.Rx.N]).Dot(m.RxWeights)
		}
		c.rxf[l] = rxf
		// cmplx.Rect(amp, θ) is exactly complex(amp·cosθ, amp·sinθ); keeping
		// the unit phasor lets refreshLoss rebuild coef bit-identically.
		ph := m.carrierPhase(l)
		c.unitRe[l], c.unitIm[l] = math.Cos(ph), math.Sin(ph)
		c.coef[l] = complex(amp*c.unitRe[l], amp*c.unitIm[l]) * rxf
		n := m.Tx.N
		cmx.Split(m.Tx.SteeringInto(p.AoD, c.scratch[:n]), c.steerRe[l*n:(l+1)*n], c.steerIm[l*n:(l+1)*n])
	}
	return c
}

// uniformStep reports whether fOffs is a uniform grid and returns its step,
// the span over n−1 (a first difference's rounding would be multiplied along
// the grid). The grid is uniform when every f_k lies within tol = 64 ulps
// of its scale of f₀ + k·step, which bounds the recurrence's phase error at
// 2πτ·tol. Grids from SubcarrierOffsets lie within 2 ulps of their span
// (every n ≤ 4096): at most 4π·ε·span·τ, below 1e-12 rad while
// span·τ < 350 (a 400 MHz grid up to 875 ns of delay).
func uniformStep(fOffs []float64) (float64, bool) {
	n := len(fOffs)
	if n < 2 {
		return 0, true
	}
	step := (fOffs[n-1] - fOffs[0]) / float64(n-1)
	scale := math.Abs(fOffs[0])
	if s := math.Abs(fOffs[n-1]); s > scale {
		scale = s
	}
	if s := math.Abs(step) * float64(n); s > scale {
		scale = s
	}
	tol := 64 * 2.220446049250313e-16 * scale
	f0 := fOffs[0]
	for k := 1; k < n-1; k++ {
		if math.Abs(fOffs[k]-(f0+float64(k)*step)) > tol {
			return 0, false
		}
	}
	return step, true
}

// EffectiveWidebandSplitInto evaluates Effective at each frequency offset:
// the effective wideband channel under TX beam w lands in the planar pair
// (dstRe, dstIm), the layout the batched DSP kernels, the planar SNR
// reduction and the sounder consume directly. Both slices must have length
// len(fOffs). It allocates only on a cache rebuild after a model mutation
// (never for a warm Reuse model). The cost is O(L·N + nsc·L) versus the
// naive O(nsc·L·N) with nsc·L complex exponentials; results match the direct
// per-subcarrier Effective to well under 1e-12 (pinned by
// TestEffectiveWidebandFactoredEquivalence).
func (m *Model) EffectiveWidebandSplitInto(w cmx.Vector, fOffs []float64, dstRe, dstIm []float64) {
	if len(dstRe) != len(fOffs) || len(dstIm) != len(fOffs) {
		panic(fmt.Sprintf("channel: wideband planar dst lengths %d/%d != %d offsets",
			len(dstRe), len(dstIm), len(fOffs)))
	}
	c := m.pathCache()
	for k := range dstRe {
		dstRe[k] = 0
		dstIm[k] = 0
	}
	step, uniform := uniformStep(fOffs)
	n := m.Tx.N
	for l := range c.coef {
		base := c.coef[l]
		if base == 0 {
			continue
		}
		dotRe, dotIm := dsp.DotSplit(c.steerRe[l*n:(l+1)*n], c.steerIm[l*n:(l+1)*n], w)
		// base·dot in the componentwise order the complex multiply lowers to.
		clRe := real(base)*dotRe - imag(base)*dotIm
		clIm := real(base)*dotIm + imag(base)*dotRe
		tau := c.delays[l]
		if tau == 0 {
			for k := range dstRe {
				dstRe[k] += clRe
				dstIm[k] += clIm
			}
			continue
		}
		if !uniform {
			for k, f := range fOffs {
				th := -2 * math.Pi * f * tau
				pc, ps := math.Cos(th), math.Sin(th)
				dstRe[k] += clRe*pc - clIm*ps
				dstIm[k] += clRe*ps + clIm*pc
			}
			continue
		}
		dsp.PhasorRampAxpy(dstRe, dstIm, clRe, clIm,
			-2*math.Pi*fOffs[0]*tau, -2*math.Pi*step*tau)
	}
}

// SubcarrierOffsets returns nsc baseband frequency offsets uniformly
// spanning bandwidth bw, centered on the carrier. Non-positive nsc yields
// nil (an empty grid), so degenerate configurations evaluate to empty
// responses instead of panicking downstream.
func SubcarrierOffsets(bw float64, nsc int) []float64 {
	if nsc <= 0 {
		return nil
	}
	out := make([]float64, nsc)
	if nsc == 1 {
		return out
	}
	step := bw / float64(nsc)
	for i := range out {
		out[i] = -bw/2 + (float64(i)+0.5)*step
	}
	return out
}

// Clone returns a deep copy of the model (paths copied, arrays shared).
// The factored-kernel cache is not carried over: the clone rebuilds its own
// on first wideband evaluation, so clone and original never contend on the
// atomic cache slot.
func (m *Model) Clone() *Model {
	out := &Model{
		Band:  m.Band,
		Tx:    m.Tx,
		Rx:    m.Rx,
		Paths: append([]PathState(nil), m.Paths...),
	}
	if m.RxWeights != nil {
		out.RxWeights = m.RxWeights.Clone()
	}
	return out
}

// CopyStateFrom overwrites this model's channel state (band, arrays, UE
// weights, paths) with src's, reusing the receiver's existing Paths and
// RxWeights capacity — the steady-state companion of Clone for per-worker
// persistent models: clone once, then CopyStateFrom every slot without
// touching the allocator. The receiver's Reuse flag and cache backing are
// kept; src is not mutated and its cache is never shared. The cache is
// invalidated only when the in-place RxWeights copy changed element values
// (the one mutation the per-path snapshot check cannot see) — everything
// else the copy touches is snapshot-visible, so an unchanged-weights copy
// keeps loss-only cache refreshes (refreshLoss) available to the slot loop.
func (m *Model) CopyStateFrom(src *Model) {
	m.Band = src.Band
	m.Tx = src.Tx
	m.Rx = src.Rx
	if src.RxWeights == nil {
		m.RxWeights = nil
	} else {
		rxSame := len(m.RxWeights) == len(src.RxWeights)
		if rxSame {
			for i := range src.RxWeights {
				if m.RxWeights[i] != src.RxWeights[i] {
					rxSame = false
					break
				}
			}
		}
		if cap(m.RxWeights) < len(src.RxWeights) {
			m.RxWeights = make(cmx.Vector, len(src.RxWeights))
		}
		m.RxWeights = m.RxWeights[:len(src.RxWeights)]
		copy(m.RxWeights, src.RxWeights)
		if !rxSame {
			m.InvalidateCache()
		}
	}
	if cap(m.Paths) < len(src.Paths) {
		m.Paths = make([]PathState, len(src.Paths))
	}
	m.Paths = m.Paths[:len(src.Paths)]
	copy(m.Paths, src.Paths)
	m.stamp++
}

// StrongestPath returns the index of the path with the lowest total loss,
// or −1 if the model has no paths with finite loss.
func (m *Model) StrongestPath() int {
	best, idx := math.Inf(1), -1
	for i, p := range m.Paths {
		if l := p.LossDB + p.ExtraLossDB; l < best {
			best, idx = l, i
		}
	}
	return idx
}

// RelativeGain returns (δ, σ): the amplitude ratio and phase of path l
// relative to path ref, evaluated at the carrier (fOff = 0). This is the
// ground truth the two-probe estimator (§3.3) tries to recover.
func (m *Model) RelativeGain(l, ref int) (delta, sigma float64) {
	gl := m.PathGain(l, 0)
	gr := m.PathGain(ref, 0)
	if gr == 0 {
		return 0, 0
	}
	r := gl / gr
	return cmplx.Abs(r), cmplx.Phase(r)
}

// PathSpec describes one path of a scripted (hand-built) channel.
type PathSpec struct {
	AoDDeg    float64 // departure angle in degrees
	RelAttDB  float64 // power attenuation relative to the reference path
	PhaseRad  float64 // phase at the carrier relative to the reference path
	DelayNs   float64 // absolute delay in nanoseconds
	AbsLossDB float64 // absolute loss of the reference scale (applied to all)
}

// FromSpecs builds a deterministic scripted channel: the first spec is the
// reference path; each path's carrier phase is exactly PhaseRad relative to
// the reference (delays only shape the wideband response, not the carrier
// phase, which makes test assertions exact).
func FromSpecs(band env.Band, tx *antenna.ULA, refLossDB float64, specs []PathSpec) *Model {
	m := &Model{Band: band, Tx: tx}
	for _, s := range specs {
		delay := s.DelayNs * 1e-9
		// Cancel the carrier-phase contribution of the delay so the net
		// carrier phase equals PhaseRad.
		extra := s.PhaseRad + 2*math.Pi*band.CarrierHz*delay
		m.Paths = append(m.Paths, PathState{
			Path: env.Path{
				AoD:    s.AoDDeg * math.Pi / 180,
				Delay:  delay,
				LossDB: refLossDB + s.RelAttDB + s.AbsLossDB,
			},
			ExtraPhase: extra,
		})
	}
	return m
}

// ClusterParams controls the stochastic sparse-cluster channel generator.
type ClusterParams struct {
	MinPaths, MaxPaths int     // inclusive path-count range (≥1)
	LOSLossDB          float64 // loss of the direct path
	RelAttMeanDB       float64 // mean extra attenuation of reflected paths
	RelAttStdDB        float64 // spread of reflected-path attenuation
	MaxExcessDelayNs   float64 // reflected-path excess delay upper bound
	SectorDeg          float64 // angular sector width for AoDs (centered 0)
	MinSepDeg          float64 // minimum angular separation between paths
}

// DefaultClusterParams matches the paper's measured statistics: 2–3 viable
// paths, reflected paths 1–10 dB below the direct with ~5–7 dB median.
func DefaultClusterParams() ClusterParams {
	return ClusterParams{
		MinPaths:         2,
		MaxPaths:         3,
		LOSLossDB:        85,
		RelAttMeanDB:     6,
		RelAttStdDB:      2.5,
		MaxExcessDelayNs: 60,
		SectorDeg:        120,
	}
}

// Cluster draws a random sparse multipath channel. The direct path departs
// at a random angle in the sector; reflected paths get independent angles,
// attenuations (truncated at ≥1 dB), excess delays, and uniform phases.
func Cluster(rng *rand.Rand, band env.Band, tx *antenna.ULA, p ClusterParams) *Model {
	if p.MinPaths < 1 || p.MaxPaths < p.MinPaths {
		panic(fmt.Sprintf("channel: bad cluster path range [%d, %d]", p.MinPaths, p.MaxPaths))
	}
	n := p.MinPaths + rng.Intn(p.MaxPaths-p.MinPaths+1)
	sector := p.SectorDeg * math.Pi / 180
	minSep := p.MinSepDeg * math.Pi / 180
	var used []float64
	angle := func() float64 {
		for attempt := 0; ; attempt++ {
			a := (rng.Float64() - 0.5) * sector
			ok := true
			for _, u := range used {
				if math.Abs(a-u) < minSep {
					ok = false
					break
				}
			}
			if ok || attempt > 100 {
				used = append(used, a)
				return a
			}
		}
	}
	m := &Model{Band: band, Tx: tx}
	losDelay := 30e-9 + 100e-9*rng.Float64()
	m.Paths = append(m.Paths, PathState{Path: env.Path{
		AoD:    angle(),
		Delay:  losDelay,
		LossDB: p.LOSLossDB,
	}})
	for i := 1; i < n; i++ {
		att := p.RelAttMeanDB + p.RelAttStdDB*rng.NormFloat64()
		if att < 1 {
			att = 1
		}
		m.Paths = append(m.Paths, PathState{
			Path: env.Path{
				AoD:    angle(),
				Delay:  losDelay + rng.Float64()*p.MaxExcessDelayNs*1e-9,
				LossDB: p.LOSLossDB + att,
				Refl:   1,
			},
			ExtraPhase: rng.Float64() * 2 * math.Pi,
		})
	}
	return m
}
