package channel

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"mmreliable/internal/antenna"
	"mmreliable/internal/cmx"
	"mmreliable/internal/dsp"
	"mmreliable/internal/env"
)

func testArray() *antenna.ULA { return antenna.NewULA(8, 28e9) }

func twoPath(relAttDB, phaseRad float64) *Model {
	return FromSpecs(env.Band28GHz(), testArray(), 80, []PathSpec{
		{AoDDeg: 0},
		{AoDDeg: 30, RelAttDB: relAttDB, PhaseRad: phaseRad, DelayNs: 10},
	})
}

func TestFromSpecsRelativeGain(t *testing.T) {
	for _, tc := range []struct {
		att   float64
		phase float64
	}{
		{0, 0}, {3, -0.7}, {6, 2.5}, {10, math.Pi / 2},
	} {
		m := twoPath(tc.att, tc.phase)
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		delta, sigma := m.RelativeGain(1, 0)
		wantDelta := math.Pow(10, -tc.att/20)
		if math.Abs(delta-wantDelta) > 1e-9 {
			t.Fatalf("att %g: δ = %g want %g", tc.att, delta, wantDelta)
		}
		if math.Abs(dsp.WrapPhase(sigma-tc.phase)) > 1e-9 {
			t.Fatalf("phase %g: σ = %g", tc.phase, sigma)
		}
	}
}

func TestPerAntennaCSIMatchesAnalyticForm(t *testing.T) {
	// For a single path at φ, h[n] must equal g·a(φ)[n].
	m := FromSpecs(env.Band28GHz(), testArray(), 80, []PathSpec{{AoDDeg: 20}})
	h := m.PerAntennaCSI(0)
	g := m.PathGain(0, 0)
	a := m.Tx.SteeringInto(dsp.Rad(20), nil)
	for n := range h {
		if cmplx.Abs(h[n]-g*a[n]) > 1e-12 {
			t.Fatalf("antenna %d mismatch", n)
		}
	}
}

func TestEffectiveMatchesPerAntennaCSI(t *testing.T) {
	// h(f)ᵀw computed directly must equal the per-antenna CSI dotted with w.
	rng := rand.New(rand.NewSource(5))
	m := Cluster(rng, env.Band28GHz(), testArray(), DefaultClusterParams())
	w := make(cmx.Vector, m.Tx.N)
	for i := range w {
		w[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	w.Normalize()
	for _, f := range []float64{0, -200e6, 55e6} {
		direct := m.Effective(w, f)
		viaCSI := m.PerAntennaCSI(f).Dot(w)
		if cmplx.Abs(direct-viaCSI) > 1e-12 {
			t.Fatalf("f=%g: %v vs %v", f, direct, viaCSI)
		}
	}
}

func TestMRTBeatsEverythingOnPerAntennaCSI(t *testing.T) {
	// Sanity: conjugate beamforming on the true CSI maximizes |h·w|.
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 30; trial++ {
		m := Cluster(rng, env.Band28GHz(), testArray(), DefaultClusterParams())
		h := m.PerAntennaCSI(0)
		wopt := h.Conj().Normalize()
		best := cmplx.Abs(m.Effective(wopt, 0))
		wrand := make(cmx.Vector, m.Tx.N)
		for i := range wrand {
			wrand[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		wrand.Normalize()
		if got := cmplx.Abs(m.Effective(wrand, 0)); got > best+1e-12 {
			t.Fatalf("trial %d: random beam beat MRT", trial)
		}
	}
}

func TestTwoEqualPathsGive3dB(t *testing.T) {
	// The paper's headline example: two equal paths, constructive combining
	// doubles the received power vs a single beam on one path.
	m := twoPath(0, 0)
	single := m.Tx.SingleBeam(0)
	h := m.PerAntennaCSI(0)
	opt := h.Conj().Normalize()
	pSingle := cmplx.Abs(m.Effective(single, 0))
	pOpt := cmplx.Abs(m.Effective(opt, 0))
	gainDB := 20 * math.Log10(pOpt/pSingle)
	// Single beam at 0° also catches a sliver of the 30° path, so the gain
	// is close to but not exactly 3 dB.
	if gainDB < 2.4 || gainDB > 3.6 {
		t.Fatalf("two-equal-path optimal gain %g dB, want ≈3", gainDB)
	}
}

func TestBlockageExtraLoss(t *testing.T) {
	m := twoPath(3, 0)
	before := cmplx.Abs(m.PathGain(1, 0))
	m.Paths[1].ExtraLossDB = 20
	after := cmplx.Abs(m.PathGain(1, 0))
	if math.Abs(20*math.Log10(before/after)-20) > 1e-9 {
		t.Fatalf("extra loss not applied: %g dB", 20*math.Log10(before/after))
	}
	// Infinite loss kills the path.
	m.Paths[1].ExtraLossDB = math.Inf(1)
	if g := m.PathGain(1, 0); g != 0 {
		t.Fatalf("infinite loss should zero the gain, got %v", g)
	}
}

func TestWidebandFrequencySelectivity(t *testing.T) {
	// Two paths with a delay gap produce frequency-selective fading; a
	// single path is flat.
	flat := FromSpecs(env.Band28GHz(), testArray(), 80, []PathSpec{{AoDDeg: 0}})
	sel := FromSpecs(env.Band28GHz(), testArray(), 80, []PathSpec{
		{AoDDeg: 0},
		{AoDDeg: 30, PhaseRad: 0, DelayNs: 10},
	})
	offs := SubcarrierOffsets(400e6, 64)
	w := flat.Tx.SingleBeam(0)
	flatResp := wideband(flat, w, offs).Abs()
	// Multi-beam weights exciting both paths.
	h := sel.PerAntennaCSI(0)
	wmb := h.Conj().Normalize()
	selResp := wideband(sel, wmb, offs).Abs()

	flatVar := spread(flatResp)
	selVar := spread(selResp)
	if flatVar > 1e-9 {
		t.Fatalf("single path should be flat, spread %g", flatVar)
	}
	if selVar < 10*flatVar+1e-12 {
		t.Fatalf("two-path response suspiciously flat: %g", selVar)
	}
}

func spread(xs []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return hi - lo
}

func TestSubcarrierOffsets(t *testing.T) {
	offs := SubcarrierOffsets(400e6, 4)
	if len(offs) != 4 {
		t.Fatalf("len %d", len(offs))
	}
	if offs[0] != -150e6 || offs[3] != 150e6 {
		t.Fatalf("offsets %v", offs)
	}
	// Symmetric around 0.
	if offs[0] != -offs[3] || offs[1] != -offs[2] {
		t.Fatalf("offsets not symmetric: %v", offs)
	}
	if got := SubcarrierOffsets(400e6, 1); got[0] != 0 {
		t.Fatalf("single subcarrier should sit at center: %v", got)
	}
}

func TestRxArrayFactor(t *testing.T) {
	// With an RX array and matched combining toward the path's AoA, the
	// path gain grows by √N_rx in amplitude.
	m := FromSpecs(env.Band28GHz(), testArray(), 80, []PathSpec{{AoDDeg: 10}})
	m.Paths[0].AoA = dsp.Rad(-25)
	omni := cmplx.Abs(m.PathGain(0, 0))

	rx := antenna.NewULA(4, 28e9)
	m.Rx = rx
	m.SetRxWeights(rx.SingleBeam(dsp.Rad(-25)))
	combined := cmplx.Abs(m.PathGain(0, 0))
	if math.Abs(combined/omni-math.Sqrt(4)) > 1e-9 {
		t.Fatalf("RX combining gain %g want %g", combined/omni, math.Sqrt(4))
	}
	// Rx set but no weights → quasi-omni.
	m.SetRxWeights(nil)
	if got := cmplx.Abs(m.PathGain(0, 0)); math.Abs(got-omni) > 1e-12 {
		t.Fatalf("nil RX weights should be omni: %g vs %g", got, omni)
	}
}

func TestValidate(t *testing.T) {
	m := &Model{}
	if err := m.Validate(); err == nil {
		t.Fatal("nil TX should fail")
	}
	m = twoPath(3, 0)
	m.Band.CarrierHz = 0
	if err := m.Validate(); err == nil {
		t.Fatal("zero carrier should fail")
	}
	m = twoPath(3, 0)
	m.Rx = antenna.NewULA(4, 28e9)
	m.SetRxWeights(make(cmx.Vector, 3))
	if err := m.Validate(); err == nil {
		t.Fatal("mismatched RX weights should fail")
	}
}

func TestCloneIsolation(t *testing.T) {
	m := twoPath(3, 0)
	c := m.Clone()
	c.Paths[0].ExtraLossDB = 99
	if m.Paths[0].ExtraLossDB != 0 {
		t.Fatal("clone shares path state")
	}
}

func TestStrongestPath(t *testing.T) {
	m := twoPath(3, 0)
	if got := m.StrongestPath(); got != 0 {
		t.Fatalf("strongest = %d", got)
	}
	m.Paths[0].ExtraLossDB = 30
	if got := m.StrongestPath(); got != 1 {
		t.Fatalf("strongest after blockage = %d", got)
	}
	empty := &Model{Tx: testArray(), Band: env.Band28GHz()}
	if got := empty.StrongestPath(); got != -1 {
		t.Fatalf("empty strongest = %d", got)
	}
}

func TestClusterStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	p := DefaultClusterParams()
	var relAtts []float64
	for trial := 0; trial < 500; trial++ {
		m := Cluster(rng, env.Band28GHz(), testArray(), p)
		if len(m.Paths) < p.MinPaths || len(m.Paths) > p.MaxPaths {
			t.Fatalf("path count %d outside [%d, %d]", len(m.Paths), p.MinPaths, p.MaxPaths)
		}
		if m.Paths[0].Refl != 0 {
			t.Fatal("first path must be LOS")
		}
		for i, ps := range m.Paths {
			if math.Abs(ps.AoD) > dsp.Rad(p.SectorDeg)/2+1e-12 {
				t.Fatalf("AoD %g outside sector", dsp.Deg(ps.AoD))
			}
			if i > 0 {
				rel := ps.LossDB - m.Paths[0].LossDB
				if rel < 1 {
					t.Fatalf("reflected path stronger than allowed: %g", rel)
				}
				relAtts = append(relAtts, rel)
				if ps.Delay < m.Paths[0].Delay {
					t.Fatal("reflected delay shorter than LOS")
				}
			}
		}
	}
	// Mean relative attenuation should track the configured mean.
	var sum float64
	for _, r := range relAtts {
		sum += r
	}
	mean := sum / float64(len(relAtts))
	if math.Abs(mean-p.RelAttMeanDB) > 1.0 {
		t.Fatalf("mean relative attenuation %g, want ≈%g", mean, p.RelAttMeanDB)
	}
}

func TestClusterBadParamsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Cluster(rand.New(rand.NewSource(1)), env.Band28GHz(), testArray(),
		ClusterParams{MinPaths: 0, MaxPaths: 0})
}

func TestTracedChannelEndToEnd(t *testing.T) {
	// Paths from the ray tracer must flow into a usable channel model.
	e := env.ConferenceRoom(env.Band28GHz())
	gnb := env.GNBPose(true)
	ue := env.Pose{Pos: env.Vec2{X: 6, Y: 3.5}, Facing: math.Pi}
	paths := e.Trace(gnb, ue)
	if len(paths) < 2 {
		t.Fatalf("need multipath, got %d", len(paths))
	}
	m := New(env.Band28GHz(), testArray(), paths)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	w := m.Tx.SingleBeam(paths[0].AoD)
	y := cmplx.Abs(m.Effective(w, 0))
	if y <= 0 {
		t.Fatal("zero effective channel")
	}
	// Beamforming toward the strongest path beats an arbitrary off-path beam.
	wOff := m.Tx.SingleBeam(paths[0].AoD + dsp.Rad(25))
	if cmplx.Abs(m.Effective(wOff, 0)) >= y {
		t.Fatal("off-path beam should be weaker")
	}
}
