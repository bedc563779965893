package channel

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"mmreliable/internal/cmx"
	"mmreliable/internal/env"
)

// Property: the effective channel is invariant in magnitude under a global
// phase rotation of the weights (TRP and beam shape unchanged).
func TestEffectiveGlobalPhaseInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m := Cluster(rng, env.Band28GHz(), testArray(), DefaultClusterParams())
	f := func(phaseRaw float64) bool {
		phase := math.Mod(phaseRaw, 2*math.Pi)
		if math.IsNaN(phase) || math.IsInf(phase, 0) {
			return true
		}
		w := m.Tx.SingleBeam(0.2)
		rot := w.Scaled(cmplx.Exp(complex(0, phase)))
		a := cmplx.Abs(m.Effective(w, 0))
		b := cmplx.Abs(m.Effective(rot, 0))
		return math.Abs(a-b) < 1e-12*(1+a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Effective is linear in the weights.
func TestEffectiveLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := Cluster(rng, env.Band28GHz(), testArray(), DefaultClusterParams())
	w1 := m.Tx.SingleBeam(0.1)
	w2 := m.Tx.SingleBeam(-0.4)
	for trial := 0; trial < 50; trial++ {
		a := complex(rng.NormFloat64(), rng.NormFloat64())
		b := complex(rng.NormFloat64(), rng.NormFloat64())
		comb := w1.Scaled(a).Add(w2.Scaled(b))
		lhs := m.Effective(comb, 0)
		rhs := a*m.Effective(w1, 0) + b*m.Effective(w2, 0)
		if cmplx.Abs(lhs-rhs) > 1e-12*(1+cmplx.Abs(lhs)) {
			t.Fatalf("linearity broken: %v vs %v", lhs, rhs)
		}
	}
}

// Property: per-antenna CSI energy bounds the effective channel by
// Cauchy-Schwarz: |hᵀw| ≤ ‖h‖·‖w‖.
func TestEffectiveCauchySchwarzBound(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 50; trial++ {
		m := Cluster(rng, env.Band28GHz(), testArray(), DefaultClusterParams())
		h := m.PerAntennaCSI(0)
		w := make(cmx.Vector, m.Tx.N)
		for i := range w {
			w[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		w.Normalize()
		if got := cmplx.Abs(m.Effective(w, 0)); got > h.Norm()+1e-12 {
			t.Fatalf("|hᵀw| = %g exceeds ‖h‖ = %g", got, h.Norm())
		}
	}
}

// Property: adding extra loss to a path can only reduce the per-antenna CSI
// energy contribution of that path.
func TestExtraLossMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 30; trial++ {
		m := Cluster(rng, env.Band28GHz(), testArray(), DefaultClusterParams())
		k := rng.Intn(len(m.Paths))
		before := cmplx.Abs(m.PathGain(k, 0))
		m.Paths[k].ExtraLossDB += 1 + 10*rng.Float64()
		after := cmplx.Abs(m.PathGain(k, 0))
		if after >= before {
			t.Fatalf("extra loss did not attenuate: %g → %g", before, after)
		}
	}
}

// Property: wideband response magnitudes are conjugate-symmetric in the
// delay structure sense — specifically, the mean power across symmetric
// subcarrier pairs equals the mean power overall for a single path (flat).
func TestSinglePathFlatness(t *testing.T) {
	m := FromSpecs(env.Band28GHz(), testArray(), 80, []PathSpec{{AoDDeg: 17, DelayNs: 33}})
	w := m.Tx.SingleBeam(m.Paths[0].AoD)
	resp := m.EffectiveWidebandInto(w, SubcarrierOffsets(400e6, 64), nil).Abs()
	for i := 1; i < len(resp); i++ {
		if math.Abs(resp[i]-resp[0]) > 1e-12*resp[0] {
			t.Fatalf("single-path response not flat at bin %d", i)
		}
	}
}

// Failure injection: a channel whose every path is infinitely attenuated
// behaves as a dead link everywhere in the API.
func TestDeadChannel(t *testing.T) {
	m := twoPath(3, 1)
	for k := range m.Paths {
		m.Paths[k].ExtraLossDB = math.Inf(1)
	}
	if g := m.PerAntennaCSI(0).Norm(); g != 0 {
		t.Fatalf("dead channel CSI norm %g", g)
	}
	if y := m.Effective(m.Tx.SingleBeam(0), 0); y != 0 {
		t.Fatalf("dead channel effective %v", y)
	}
	if got := m.StrongestPath(); got != -1 {
		t.Fatalf("StrongestPath over all-dead paths = %d, want -1", got)
	}
}
