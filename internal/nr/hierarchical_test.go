package nr

import (
	"math"
	"testing"

	"mmreliable/internal/dsp"
)

func TestHierConfigValidate(t *testing.T) {
	if err := DefaultHierConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultHierConfig()
	bad.Keep = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("keep 0 should fail")
	}
}

func TestHierSweepFindsLOS(t *testing.T) {
	s := testSounder(t, 1e-6, DefaultImpairments())
	m := testChannel() // LOS at 0°, reflection at 30° (−5 dB)
	res, err := HierSweep(s, m, m.Tx, DefaultHierConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Angles) == 0 {
		t.Fatal("no beams found")
	}
	if math.Abs(dsp.Deg(res.Angles[0])) > 8 {
		t.Fatalf("strongest beam at %g°, want ≈0", dsp.Deg(res.Angles[0]))
	}
	// Strongest-first ordering.
	for i := 1; i < len(res.RSS); i++ {
		if res.RSS[i] > res.RSS[i-1] {
			t.Fatal("results not ordered by RSS")
		}
	}
}

func TestHierSweepFindsSecondPath(t *testing.T) {
	s := testSounder(t, 1e-6, DefaultImpairments())
	m := testChannel()
	cfg := DefaultHierConfig()
	res, err := HierSweep(s, m, m.Tx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Angles) < 2 {
		t.Fatalf("found %d beams, want the 30° reflection too", len(res.Angles))
	}
	found := false
	for _, a := range res.Angles {
		if math.Abs(dsp.Deg(a)-30) < 10 {
			found = true
		}
	}
	if !found {
		t.Fatalf("reflection not found; angles: %v", degrees(res.Angles))
	}
}

func TestHierSweepCheaperThanExhaustive(t *testing.T) {
	s := testSounder(t, 1e-6, DefaultImpairments())
	m := testChannel()
	cfg := DefaultHierConfig()
	res, err := HierSweep(s, m, m.Tx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumProbe >= hierNarrowBeams {
		t.Fatalf("hierarchical used %d probes, exhaustive needs %d", res.NumProbe, hierNarrowBeams)
	}
	if res.NumProbe != HierProbeCount(cfg) {
		t.Fatalf("probe count %d != predicted %d", res.NumProbe, HierProbeCount(cfg))
	}
	if math.Abs(res.AirTime-float64(res.NumProbe)*s.Num.SSBDuration()) > 1e-12 {
		t.Fatalf("air time %g", res.AirTime)
	}
}

func TestHierSweepDynamicRange(t *testing.T) {
	// With an extremely tight dynamic range, only the strongest survivor
	// remains.
	s := testSounder(t, 1e-6, DefaultImpairments())
	m := testChannel()
	cfg := DefaultHierConfig()
	cfg.DynRangeDB = 0.5
	res, err := HierSweep(s, m, m.Tx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Angles) != 1 {
		t.Fatalf("dyn-range filter kept %d beams", len(res.Angles))
	}
}

func degrees(rads []float64) []float64 {
	out := make([]float64, len(rads))
	for i, r := range rads {
		out[i] = dsp.Deg(r)
	}
	return out
}
