package events

import (
	"math"
	"math/rand"
	"testing"
)

func TestEventTrapezoid(t *testing.T) {
	e := Event{PathIndex: 0, Start: 1, Duration: 0.2, DepthDB: 20, RampTime: 0.1}
	cases := []struct{ t, want float64 }{
		{0.5, 0},   // before
		{1.0, 0},   // exactly at start
		{1.05, 10}, // mid-ramp
		{1.1, 20},  // ramp complete
		{1.2, 20},  // holding
		{1.3, 20},  // end of hold
		{1.35, 10}, // mid fall
		{1.4, 0},   // cleared
		{2.0, 0},   // long after
	}
	for _, c := range cases {
		if got := e.LossAt(c.t); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("LossAt(%g) = %g want %g", c.t, got, c.want)
		}
	}
	if e.End() != 1.4 {
		t.Fatalf("End = %g", e.End())
	}
}

func TestRampSlopeMatchesMeasurement(t *testing.T) {
	// Paper §4.1: blockage degrades per-beam amplitude 10 dB in 10 OFDM
	// symbols (8.93 µs each at 120 kHz SCS).
	depth := 25.0
	ramp := RampFor(depth)
	slope := depth / ramp // dB per second
	tenSymbols := 10 * 8.93e-6
	dbPer10Symbols := slope * tenSymbols
	if math.Abs(dbPer10Symbols-10) > 1e-9 {
		t.Fatalf("onset = %g dB per 10 symbols, want 10", dbPer10Symbols)
	}
	if RampFor(0) != 0 || RampFor(-5) != 0 {
		t.Fatal("non-positive depth should give zero ramp")
	}
}

func TestScheduleSumsOverlaps(t *testing.T) {
	s := Schedule{
		{PathIndex: 0, Start: 0, Duration: 1, DepthDB: 10, RampTime: 0.1},
		{PathIndex: 0, Start: 0.5, Duration: 1, DepthDB: 5, RampTime: 0.1},
		{PathIndex: 1, Start: 0, Duration: 1, DepthDB: 7, RampTime: 0.1},
	}
	if got := s.LossAt(0, 0.8); math.Abs(got-15) > 1e-9 {
		t.Fatalf("overlapping loss = %g want 15", got)
	}
	if got := s.LossAt(1, 0.8); math.Abs(got-7) > 1e-9 {
		t.Fatalf("path 1 loss = %g want 7", got)
	}
	if got := s.LossAt(2, 0.8); got != 0 {
		t.Fatalf("untouched path loss = %g", got)
	}
}

func TestAllPathsEvent(t *testing.T) {
	s := Schedule{{AllPaths: true, Start: 0, Duration: 1, DepthDB: 30, RampTime: 0.01}}
	for path := 0; path < 4; path++ {
		if got := s.LossAt(path, 0.5); math.Abs(got-30) > 1e-9 {
			t.Fatalf("path %d loss = %g", path, got)
		}
	}
}

func TestSorted(t *testing.T) {
	s := Schedule{
		{Start: 3}, {Start: 1}, {Start: 2},
	}
	sorted := s.Sorted()
	if sorted[0].Start != 1 || sorted[1].Start != 2 || sorted[2].Start != 3 {
		t.Fatalf("not sorted: %v", sorted)
	}
	// Original untouched.
	if s[0].Start != 3 {
		t.Fatal("Sorted mutated input")
	}
}

func TestValidate(t *testing.T) {
	good := Schedule{{PathIndex: 0, Duration: 1, DepthDB: 10}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Schedule{
		{{PathIndex: 0, Duration: -1}},
		{{PathIndex: 0, DepthDB: -1}},
		{{PathIndex: 0, RampTime: -1}},
		{{PathIndex: -2}},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("expected error for %+v", bad[0])
		}
	}
	// AllPaths with negative index is fine (index ignored).
	ok := Schedule{{PathIndex: -1, AllPaths: true}}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateRespectsParams(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := DefaultGenParams(3)
	totalEvents := 0
	for trial := 0; trial < 300; trial++ {
		s := Generate(rng, p)
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		totalEvents += len(s)
		for _, e := range s {
			if e.Start < 0 || e.Start >= p.Horizon {
				t.Fatalf("start %g outside horizon", e.Start)
			}
			if e.Duration < p.MinDuration-1e-12 || e.Duration > p.MaxDuration+1e-12 {
				t.Fatalf("duration %g outside [%g, %g]", e.Duration, p.MinDuration, p.MaxDuration)
			}
			if e.DepthDB < p.MinDepthDB || e.DepthDB > p.MaxDepthDB {
				t.Fatalf("depth %g outside range", e.DepthDB)
			}
			if e.PathIndex < 0 || e.PathIndex >= p.NumPaths {
				t.Fatalf("path index %d", e.PathIndex)
			}
		}
	}
	// Poisson(1) over 1 s across 300 trials ⇒ ≈300 events; allow wide slack.
	if totalEvents < 200 || totalEvents > 420 {
		t.Fatalf("unexpected event volume %d", totalEvents)
	}
	if Generate(rng, GenParams{}) != nil {
		t.Fatal("degenerate params should return nil")
	}
}

func TestWalkingBlockerShape(t *testing.T) {
	s := WalkingBlocker(0.2, 0.3, 0.15, 25)
	if len(s) != 2 {
		t.Fatalf("events %d", len(s))
	}
	// NLOS (path 1) blocked first, LOS (path 0) after the gap.
	if s[0].PathIndex != 1 || s[1].PathIndex != 0 {
		t.Fatalf("ordering: %+v", s)
	}
	if math.Abs(s[1].Start-s[0].Start-0.3) > 1e-12 {
		t.Fatal("gap wrong")
	}
	// Never simultaneous full blockage in this scenario (gap > dwell+ramps).
	for ts := 0.0; ts < 1.2; ts += 0.001 {
		l0 := s.LossAt(0, ts)
		l1 := s.LossAt(1, ts)
		if l0 >= 25 && l1 >= 25 {
			t.Fatalf("both paths fully blocked at t=%g", ts)
		}
	}
}

// TestEmptyScheduleIsNeutral: the empty (and nil) schedule is a valid
// no-op — zero loss on every path at every time, never active, and clean
// under Validate/Sorted. Callers (sim.Scenario, the station engine) rely
// on nil Blockage meaning "no blockage" without special-casing.
func TestEmptyScheduleIsNeutral(t *testing.T) {
	for _, s := range []Schedule{nil, {}} {
		for _, path := range []int{0, 3, 999} {
			for _, tm := range []float64{0, 0.5, 1e6} {
				if got := s.LossAt(path, tm); got != 0 {
					t.Fatalf("empty schedule LossAt(%d, %g) = %g", path, tm, got)
				}
			}
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("empty schedule invalid: %v", err)
		}
		if got := s.Sorted(); len(got) != 0 {
			t.Fatalf("empty schedule sorted to %d events", len(got))
		}
	}
}

// TestOverlappingIntervalsThroughRamps: overlapping events on one path sum
// sample-by-sample even where one event is still ramping while the other
// holds or falls — the physical model for two blockers crossing the same
// path. Coincident identical events double exactly.
func TestOverlappingIntervalsThroughRamps(t *testing.T) {
	a := Event{PathIndex: 0, Start: 0, Duration: 0.3, DepthDB: 20, RampTime: 0.1}    // holds 0.1–0.4, clears 0.5
	b := Event{PathIndex: 0, Start: 0.35, Duration: 0.3, DepthDB: 10, RampTime: 0.1} // ramps 0.35–0.45
	s := Schedule{a, b}
	cases := []struct{ t, want float64 }{
		{0.05, 10},      // a mid-ramp, b not started
		{0.40, 20 + 5},  // a holding (last instant), b mid-ramp: 10·(0.05/0.1)
		{0.45, 10 + 10}, // a mid-fall over 0.4–0.5: 20·(1−0.05/0.1); b fully risen
		{0.60, 0 + 10},  // a cleared, b holding
	}
	for _, c := range cases {
		if got := s.LossAt(0, c.t); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("overlap LossAt(%g) = %g want %g", c.t, got, c.want)
		}
	}
	// Coincident identical events double.
	twin := Schedule{a, a}
	if got, want := twin.LossAt(0, 0.2), 2*a.LossAt(0.2); math.Abs(got-want) > 1e-9 {
		t.Fatalf("coincident events: %g want %g", got, want)
	}
	// The overlap never leaks onto other paths.
	if got := s.LossAt(1, 0.4); got != 0 {
		t.Fatalf("overlap leaked to path 1: %g", got)
	}
}
