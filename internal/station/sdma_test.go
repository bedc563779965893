package station

import (
	"reflect"
	"testing"

	"mmreliable/internal/nr"
	"mmreliable/internal/seeds"
	"mmreliable/internal/sim"
)

// buildSpreadStation assembles a station whose n static UEs sit on an arc
// of distinct AoDs (sim.SpreadStaticIndoor) — the population the SDMA
// planner can actually group. Deterministic in (n, seed, workers).
func buildSpreadStation(t *testing.T, n, workers int, seed int64, mutate func(*Config)) *Station {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Workers = workers
	if mutate != nil {
		mutate(&cfg)
	}
	st, err := New(nr.Mu3(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < n; i++ {
		sseed := seeds.Mix(seed, 981, int64(i))
		frac := 0.5
		if n > 1 {
			frac = float64(i) / float64(n-1)
		}
		if _, err := st.Attach(SessionConfig{
			Scenario: sim.SpreadStaticIndoor(sseed, frac),
			Budget:   sim.IndoorBudget(),
			Seed:     sseed,
		}); err != nil {
			t.Fatalf("Attach %d: %v", i, err)
		}
	}
	return st
}

func sdmaCfg(chains int) func(*Config) {
	return func(c *Config) {
		c.SDMA = DefaultSDMAConfig(chains)
	}
}

// TestSDMADeterministicAcrossWorkers extends the station's core contract
// to the hybrid tier: identical Results whether scheduling units run
// inline or across 4 workers, with grouping actually exercised.
func TestSDMADeterministicAcrossWorkers(t *testing.T) {
	const dur = 0.3
	res1 := buildSpreadStation(t, 8, 1, 7, sdmaCfg(4)).Run(dur)
	res4 := buildSpreadStation(t, 8, 4, 7, sdmaCfg(4)).Run(dur)
	if !reflect.DeepEqual(res1, res4) {
		t.Fatalf("results differ between 1 and 4 workers:\n1: %+v\n4: %+v", res1, res4)
	}
	if res1.Counters.SDMAGroups == 0 {
		t.Fatalf("no SDMA groups formed: %+v", res1.Counters)
	}
	if res1.Counters.SDMASlots == 0 {
		t.Fatalf("no combined slots served: %+v", res1.Counters)
	}
}

// TestSDMAOffMatchesLegacy is the tentpole's oracle: a station with
// Chains = 0 must reproduce the legacy dedicated-airtime results exactly.
func TestSDMAOffMatchesLegacy(t *testing.T) {
	const dur = 0.25
	legacy := buildSpreadStation(t, 6, 2, 11, nil).Run(dur)
	unconfigured := buildSpreadStation(t, 6, 2, 11, sdmaCfg(0)).Run(dur)
	if !reflect.DeepEqual(unconfigured, legacy) {
		t.Fatalf("Chains=0 diverges from legacy:\nchains0: %+v\nlegacy: %+v", unconfigured, legacy)
	}
	if legacy.Counters.SDMAGroups != 0 || legacy.Counters.SDMASlots != 0 {
		t.Fatalf("legacy run carries SDMA accounting: %+v", legacy.Counters)
	}
}

// TestSDMASumThroughputGain is the in-package version of the e8 landmark:
// at 8 UEs the hybrid-SDMA cell must deliver higher sum throughput than
// the single-beam shared-airtime baseline (Chains = 1), without giving up
// reliability.
func TestSDMASumThroughputGain(t *testing.T) {
	const dur = 0.4
	tdma := buildSpreadStation(t, 8, 2, 5, sdmaCfg(1)).Run(dur)
	sdma := buildSpreadStation(t, 8, 2, 5, sdmaCfg(4)).Run(dur)
	if sdma.SumThroughputBps <= tdma.SumThroughputBps {
		t.Fatalf("hybrid SDMA sum throughput %.1f Mbps not above single-beam TDMA %.1f Mbps",
			sdma.SumThroughputBps/1e6, tdma.SumThroughputBps/1e6)
	}
	if sdma.MeanReliability < tdma.MeanReliability-0.001 {
		t.Fatalf("SDMA reliability %.4f collapsed vs TDMA %.4f", sdma.MeanReliability, tdma.MeanReliability)
	}
	if tdma.Counters.SDMAGroups != 0 {
		t.Fatalf("Chains=1 formed groups: %+v", tdma.Counters)
	}
}

// TestSDMAPairingRespectsSeparation: with an impossibly wide separation
// threshold nothing may group; with churned co-located UEs (StaticIndoor —
// all at one AoD) nothing may group either, and rejects are recorded.
func TestSDMAPairingRespectsSeparation(t *testing.T) {
	wide := buildSpreadStation(t, 6, 1, 3, func(c *Config) {
		c.SDMA = SDMAConfig{Chains: 4, MinSeparationDeg: 170, MinSINRdB: -100}
	}).Run(0.2)
	if wide.Counters.SDMAGroups != 0 {
		t.Fatalf("170° separation threshold still grouped: %+v", wide.Counters)
	}
	if wide.Counters.SDMAPairRejects == 0 {
		t.Fatalf("no pairing rejects recorded under impossible threshold: %+v", wide.Counters)
	}

	// Co-located population: every UE at StaticIndoor's single position.
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.SDMA = DefaultSDMAConfig(4)
	st, err := New(nr.Mu3(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		s := seeds.Mix(17, 981, int64(i))
		if _, err := st.Attach(SessionConfig{Scenario: sim.StaticIndoor(s), Budget: sim.IndoorBudget(), Seed: s}); err != nil {
			t.Fatal(err)
		}
	}
	res := st.Run(0.2)
	if res.Counters.SDMAGroups != 0 {
		t.Fatalf("co-located UEs grouped: %+v", res.Counters)
	}
}

// TestSDMAChainsValidation: the group-size bound is enforced at New.
func TestSDMAChainsValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SDMA.Chains = sdmaMaxChains + 1
	if _, err := New(nr.Mu3(), cfg); err == nil {
		t.Fatal("Chains > sdmaMaxChains accepted")
	}
}

// TestHybridSlotAllocs pins the hybrid steady state at zero allocations
// per frame: two fading-free established sessions forced into one group
// (thresholds wide open), stepping through the digital combiner every
// owned slot on the inline path.
func TestHybridSlotAllocs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = 1
	cfg.SDMA = SDMAConfig{Chains: 2, MinSeparationDeg: 0, MinSINRdB: -100}
	st, err := New(nr.Mu3(), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 2; i++ {
		s := seeds.Mix(31, int64(i))
		sc := sim.SpreadStaticIndoor(s, float64(i))
		sc.Fading = nil
		if _, err := st.Attach(SessionConfig{Scenario: sc, Budget: sim.IndoorBudget(), Seed: s}); err != nil {
			t.Fatalf("Attach: %v", err)
		}
	}
	for i := 0; i < 20; i++ {
		st.AdvanceFrame()
	}
	if st.counters.SDMAGroups == 0 {
		t.Fatal("warmup never grouped the two sessions — the pin would not cover the combiner")
	}
	before := st.Results().Counters.SDMASlots
	if avg := testing.AllocsPerRun(10, st.AdvanceFrame); avg != 0 {
		t.Fatalf("hybrid AdvanceFrame allocates %.1f allocs/frame in steady state, want 0", avg)
	}
	if bytes := heapBytesPerRun(50, st.AdvanceFrame); bytes != 0 {
		t.Fatalf("hybrid AdvanceFrame allocates %.1f B/frame in steady state, want 0", bytes)
	}
	if after := st.Results().Counters.SDMASlots; after <= before {
		t.Fatalf("combined slots did not advance during the pin (%d → %d)", before, after)
	}
}
