package station

import (
	"fmt"
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

// TestSDMAChainsValidation: the chain count must lie in [1,
// sdmaMaxChains]; the default is the single-RF-chain TDMA cell.
func TestSDMAChainsValidation(t *testing.T) {
	if c := DefaultConfig().SDMA.Chains; c != 1 {
		t.Fatalf("default Chains = %d, want 1", c)
	}
	for _, chains := range []int{-1, 0, sdmaMaxChains + 1} {
		cfg := DefaultConfig()
		cfg.SDMA.Chains = chains
		if _, err := New(nr.Mu3(), cfg); err == nil {
			t.Fatalf("Chains = %d accepted", chains)
		}
	}
}

// TestAirtimeInvariant checks the shared-airtime model frame by frame
// over many seeds, with churn, at the default single chain and at four:
// every slot has exactly one owning unit, every active session sits in
// exactly one unit of at most Chains members, and in every non-training
// slot all sessions delivering throughput belong to that owning unit.
func TestAirtimeInvariant(t *testing.T) {
	const (
		nSeeds = 16
		nUEs   = 8
		dur    = 0.4
	)
	for _, chains := range []int{1, 4} {
		for seed := int64(1); seed <= nSeeds; seed++ {
			t.Run(fmt.Sprintf("chains%d/seed%d", chains, seed), func(t *testing.T) {
				t.Parallel()
				checkAirtime(t, chains, seed, nUEs, dur)
			})
		}
	}
}

func checkAirtime(t *testing.T, chains int, seed int64, n int, dur float64) {
	cfg := DefaultConfig() // Chains = 1: the default cell must hold the invariant as is
	if chains != 1 {
		cfg.SDMA = DefaultSDMAConfig(chains)
	}
	cfg.Workers = 1
	cfg.KeepFrameSlots = true
	st, err := New(nr.Mu3(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		s := seeds.Mix(seed, 981, int64(i))
		scfg := SessionConfig{Scenario: sim.SpreadStaticIndoor(s, float64(i)/float64(n-1)), Budget: sim.IndoorBudget(), Seed: s}
		if i%3 == 2 {
			scfg.AttachAt = 0.3 * dur
		}
		if i%4 == 3 {
			scfg.DetachAt = 0.7 * dur
		}
		if _, err := st.Attach(scfg); err != nil {
			t.Fatal(err)
		}
	}
	spf := st.SlotsPerFrame()
	unitOf := make([]int, len(st.sessions))
	for st.Now() < dur {
		st.AdvanceFrame()
		f := st.Frame() - 1
		numUnits := len(st.units)
		for i := range unitOf {
			unitOf[i] = -1
		}
		for u, unit := range st.units {
			if len(unit) < 1 || len(unit) > chains {
				t.Fatalf("frame %d: unit %d has %d members, Chains = %d", f, u, len(unit), chains)
			}
			for _, idx := range unit {
				id := st.active[idx].id
				if unitOf[id] >= 0 {
					t.Fatalf("frame %d: session %d in units %d and %d", f, id, unitOf[id], u)
				}
				unitOf[id] = u
			}
		}
		for _, ss := range st.active {
			if unitOf[ss.id] < 0 {
				t.Fatalf("frame %d: active session %d in no unit", f, ss.id)
			}
		}
		owned := 0
		for u := 0; u < numUnits; u++ {
			for k := 0; k < spf; k++ {
				if (f*spf+k)%numUnits == u {
					owned++
				}
			}
		}
		if numUnits > 0 && owned != spf {
			t.Fatalf("frame %d: units own %d slots, want %d", f, owned, spf)
		}
		for k := 0; k < spf; k++ {
			for _, ss := range st.active {
				slot := st.SessionFrameSlots(ss.id)[k]
				if slot.Training || slot.ThroughputBps == 0 {
					continue
				}
				if owner := (f*spf + k) % numUnits; unitOf[ss.id] != owner {
					t.Fatalf("frame %d slot %d: session %d (unit %d) transmits in unit %d's slot",
						f, k, ss.id, unitOf[ss.id], owner)
				}
			}
		}
	}
	if chains >= 2 && st.counters.SDMASlots == 0 {
		t.Fatalf("no combined slots: the invariant never saw a group transmit")
	}
	if res := st.Results(); res.Counters.AttachesAdmitted != n || res.Counters.Detaches == 0 {
		t.Fatalf("churn not exercised: %+v", res.Counters)
	}
}

// TestCountersLive: the session-summed counters are kept live at the
// frame barrier, so the O(1) snapshot agrees with the full Results walk
// after a churned run — and is not trivially zero.
func TestCountersLive(t *testing.T) {
	st := buildStation(t, 10, 2, 19, nil)
	res := st.Run(0.45)
	if got := st.CountersSnapshot(); got != res.Counters {
		t.Fatalf("CountersSnapshot %+v != Results().Counters %+v", got, res.Counters)
	}
	c := res.Counters
	if c.ProbesIssued == 0 || c.Grants == 0 || c.TrainingSlots == 0 || c.Detaches == 0 {
		t.Fatalf("counters not exercised: %+v", c)
	}
	var probes, grants, training int
	for _, ur := range res.PerUE {
		probes += ur.Probes
		grants += ur.Grants
		training += ur.TrainingSlots
	}
	if probes != c.ProbesIssued || grants != c.Grants || training != c.TrainingSlots {
		t.Fatalf("per-UE sums (probes %d, grants %d, training %d) disagree with counters %+v",
			probes, grants, training, c)
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
