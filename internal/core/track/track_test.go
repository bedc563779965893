package track

import (
	"math"
	"testing"

	"mmreliable/internal/antenna"
	"mmreliable/internal/dsp"
)

func ula8() *antenna.ULA { return antenna.NewULA(8, 28e9) }

func newTracker(t *testing.T, powers ...float64) *Tracker {
	t.Helper()
	tr, err := New(ula8(), DefaultConfig(), powers)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	u := ula8()
	if _, err := New(u, DefaultConfig(), nil); err == nil {
		t.Fatal("no beams should fail")
	}
	if _, err := New(u, DefaultConfig(), []float64{0}); err == nil {
		t.Fatal("zero power should fail")
	}
}

func TestObserveLengthMismatch(t *testing.T) {
	tr := newTracker(t, 1, 0.5)
	if _, err := tr.Observe(0, []float64{1}); err == nil {
		t.Fatal("length mismatch should fail")
	}
}

func TestStableChannelNoAction(t *testing.T) {
	tr := newTracker(t, 1e-8, 0.5e-8)
	for i := 0; i < 20; i++ {
		st, err := tr.Observe(float64(i)*0.02, []float64{1e-8, 0.5e-8})
		if err != nil {
			t.Fatal(err)
		}
		for k, s := range st {
			if s.Blocked {
				t.Fatalf("beam %d spuriously blocked", k)
			}
			if s.Deviation != 0 {
				t.Fatalf("beam %d spurious deviation %g", k, s.Deviation)
			}
		}
	}
	if tr.NumBeams() != 2 {
		t.Fatalf("NumBeams %d", tr.NumBeams())
	}
}

func TestBlockageDetectedOnFastDrop(t *testing.T) {
	tr := newTracker(t, 1e-8, 0.5e-8)
	// Beam 1 loses 10 dB between consecutive 20 ms observations: the
	// instantaneous-drop detector must fire; beam 0 stays clean.
	tr.Observe(0.00, []float64{1e-8, 0.5e-8})
	st, _ := tr.Observe(0.02, []float64{1e-8, 0.5e-9})
	if !st[1].Blocked {
		t.Fatal("fast 10 dB drop not flagged as blockage")
	}
	if st[0].Blocked {
		t.Fatal("unblocked beam flagged")
	}
	// Deviation must not be reported for a blocked beam.
	if st[1].Deviation != 0 {
		t.Fatalf("blocked beam reported deviation %g", st[1].Deviation)
	}
}

func TestBlockageClearsOnRecovery(t *testing.T) {
	tr := newTracker(t, 1e-8)
	tr.Observe(0.00, []float64{1e-8})
	st, _ := tr.Observe(0.02, []float64{1e-10})
	if !st[0].Blocked {
		t.Fatal("not blocked")
	}
	// Power returns; after the EWMA converges back near the anchor the
	// blocked flag must clear.
	var last Status
	for i := 0; i < 20; i++ {
		sts, _ := tr.Observe(0.04+float64(i)*0.02, []float64{1e-8})
		last = sts[0]
	}
	if last.Blocked {
		t.Fatal("blockage did not clear after recovery")
	}
}

func TestMobilityDeviationEstimate(t *testing.T) {
	// A gradual drop following the beam pattern must yield a deviation
	// estimate close to the true misalignment.
	u := ula8()
	trueDev := dsp.Rad(4)
	p0 := 1e-8
	tr := newTracker(t, p0)
	// Walk the misalignment up smoothly over 10 observations (mobility-like
	// rates: ~0.4°/observation), ending at trueDev.
	var final Status
	for i := 1; i <= 16; i++ {
		dev := trueDev * math.Min(1, float64(i)/10) // ramp, then hold while
		// the EWMA converges (tracking runs continuously in practice)
		a := u.ArrayFactor(0, dev)
		p := p0 * a * a
		sts, err := tr.Observe(float64(i)*0.02, []float64{p})
		if err != nil {
			t.Fatal(err)
		}
		final = sts[0]
	}
	if final.Blocked {
		t.Fatal("gradual drop misclassified as blockage")
	}
	if final.Deviation == 0 {
		t.Fatal("no deviation estimate")
	}
	// EWMA lag keeps the estimate slightly behind truth; ±1° window as in
	// the paper's Fig. 17b.
	if math.Abs(final.Deviation-trueDev) > dsp.Rad(1.0) {
		t.Fatalf("deviation %g° want %g°±1°", dsp.Deg(final.Deviation), dsp.Deg(trueDev))
	}
}

func TestDeviationDeadband(t *testing.T) {
	tr := newTracker(t, 1e-8)
	// 0.2 dB wiggle: inside the deadband, no refinement.
	st, _ := tr.Observe(0.02, []float64{1e-8 * dsp.FromDB(-0.2)})
	if st[0].Deviation != 0 {
		t.Fatalf("deadband violated: %g", st[0].Deviation)
	}
}

func TestAnchorResets(t *testing.T) {
	tr := newTracker(t, 1e-8)
	tr.Observe(0.02, []float64{1e-9})
	if err := tr.Anchor(0, 2e-9); err != nil {
		t.Fatal(err)
	}
	st, _ := tr.Observe(0.04, []float64{2e-9})
	if st[0].Blocked || st[0].DropDB > 0.3 || st[0].Deviation != 0 {
		t.Fatalf("anchor did not reset: %+v", st[0])
	}
	if err := tr.Anchor(5, 1); err == nil {
		t.Fatal("out-of-range anchor should fail")
	}
	if err := tr.Anchor(0, 0); err == nil {
		t.Fatal("zero anchor power should fail")
	}
}

func TestZeroPowerObservation(t *testing.T) {
	tr := newTracker(t, 1e-8)
	st, err := tr.Observe(0.02, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if !st[0].Blocked {
		t.Fatal("total power loss must flag blockage")
	}
}

func TestCandidates(t *testing.T) {
	a, b := Candidates(0.5, 0.1)
	if a != 0.6 || b != 0.4 {
		t.Fatalf("candidates %g %g", a, b)
	}
}

func TestSmoothedDB(t *testing.T) {
	tr := newTracker(t, 1e-8)
	if got := tr.bs[0].ewma.Value(); math.Abs(got+80) > 1e-9 {
		t.Fatalf("smoothed = %g", got)
	}
}

func TestRotationFromDrop(t *testing.T) {
	ue := antenna.NewULA(4, 28e9)
	// Rotate the UE by 6°: the UE gain falls by 2·AmpDB(AF).
	trueRot := dsp.Rad(6)
	// Power drop (dB) of a misaligned matched beam: −10·log10(AF²).
	dropDB := -dsp.AmpDB(ue.ArrayFactor(0, trueRot))
	got := RotationFromDrop(ue, dropDB)
	if math.Abs(got-trueRot) > dsp.Rad(0.5) {
		t.Fatalf("rotation %g° want 6°", dsp.Deg(got))
	}
	if RotationFromDrop(ue, 0) != 0 || RotationFromDrop(ue, -3) != 0 {
		t.Fatal("non-positive drop should give 0")
	}
}

func TestBlockageVsMobilityDiscrimination(t *testing.T) {
	// The same 10 dB total loss: fast (2 observations) → blockage; slow
	// (40 observations) → mobility. This is the §4.1/§4.2 decision.
	fast := newTracker(t, 1e-8)
	fast.Observe(0, []float64{1e-8})
	stF, _ := fast.Observe(0.02, []float64{1e-9})
	if !stF[0].Blocked {
		t.Fatal("fast loss not classified as blockage")
	}
	slow := newTracker(t, 1e-8)
	var last Status
	for i := 1; i <= 40; i++ {
		db := -10 * float64(i) / 40
		sts, _ := slow.Observe(float64(i)*0.02, []float64{1e-8 * dsp.FromDB(db)})
		last = sts[0]
	}
	if last.Blocked {
		t.Fatal("slow loss misclassified as blockage")
	}
	if last.Deviation == 0 {
		t.Fatal("slow loss should produce a deviation estimate")
	}
}

// Property: a tracker fed monotonically falling powers reports
// monotonically growing DropDB (smoothing never inverts a monotone trend).
func TestDropMonotoneProperty(t *testing.T) {
	tr := newTracker(t, 1e-8)
	prev := -1.0
	for i := 1; i <= 30; i++ {
		p := 1e-8 * dsp.FromDB(-0.2*float64(i))
		sts, err := tr.Observe(float64(i)*0.02, []float64{p})
		if err != nil {
			t.Fatal(err)
		}
		if sts[0].DropDB < prev {
			t.Fatalf("step %d: drop %g fell below previous %g", i, sts[0].DropDB, prev)
		}
		prev = sts[0].DropDB
	}
}

// Property: deviation estimates are monotone in the drop — more power loss
// can never map to a smaller angular offset (the array factor main lobe is
// monotone).
func TestDeviationMonotoneInDrop(t *testing.T) {
	u := ula8()
	prev := -1.0
	for _, dropDB := range []float64{0.6, 1, 2, 4, 8, 12} {
		dev := u.InvertArrayFactor(dsp.AmpFromDB(-dropDB))
		if dev < prev {
			t.Fatalf("drop %g dB: deviation %g below previous %g", dropDB, dev, prev)
		}
		prev = dev
	}
}
