package sim

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"mmreliable/internal/antenna"
	"mmreliable/internal/channel"
	"mmreliable/internal/env"
	"mmreliable/internal/events"
	"mmreliable/internal/motion"
	"mmreliable/internal/nr"
)

// twoGNBWorld returns one Scenario per gNB over a shared room, UE and
// array: gNB 0 at 8 m from the UE, gNB 1 at 12 m.
func twoGNBWorld(duration float64) []*Scenario {
	e := env.NewEnvironment(env.Band28GHz(),
		env.Wall{Seg: env.Segment{A: env.Vec2{X: -5, Y: 4}, B: env.Vec2{X: 25, Y: 4}}, Mat: env.Metal},
	)
	e.FrontHalfOnly = false
	ue := motion.Static{Pose: env.Pose{Pos: env.Vec2{X: 8, Y: 0.5}, Facing: 0}}
	tx := antenna.NewULA(8, 28e9)
	var scs []*Scenario
	for _, gnb := range []env.Pose{
		{Pos: env.Vec2{X: 0, Y: 0}, Facing: 0},
		{Pos: env.Vec2{X: 20, Y: 0}, Facing: math.Pi},
	} {
		scs = append(scs, &Scenario{
			Env: e, GNB: gnb, UE: ue,
			Duration: duration, Num: nr.Mu3(),
			TxArray: tx, MaxPaths: 3,
		})
	}
	return scs
}

// recorder counts the slots handed to a MultiScheme and checks each slot
// carries one channel per gNB, gNB 0's LOS path shorter than gNB 1's.
type recorder struct {
	calls int
}

func (r *recorder) Name() string { return "rec" }
func (r *recorder) StepMulti(t float64, ms []*channel.Model) Slot {
	r.calls++
	if len(ms) != 2 {
		panic("wrong gNB count")
	}
	if ms[0].Paths[0].Delay >= ms[1].Paths[0].Delay {
		panic("gNB 0 (8 m) delay not shorter than gNB 1 (12 m)")
	}
	return Slot{SNRdB: 20, ThroughputBps: 1e9}
}

func TestRunMultiDrivesScheme(t *testing.T) {
	r := &recorder{}
	out, err := (Runner{}).RunMulti(twoGNBWorld(0.05), r)
	if err != nil {
		t.Fatal(err)
	}
	wantSlots := int(math.Ceil(0.05 / nr.Mu3().SlotDuration()))
	if r.calls != wantSlots {
		t.Fatalf("scheme stepped %d times, want %d", r.calls, wantSlots)
	}
	if out["rec"].Summary.Reliability != 1 {
		t.Fatalf("reliability %g", out["rec"].Summary.Reliability)
	}
}

// TestRunMultiPerGNBBlockage: each scenario's blockage schedule addresses
// its own gNB's initial path ranks and nobody else's.
func TestRunMultiPerGNBBlockage(t *testing.T) {
	scs := twoGNBWorld(0.02)
	scs[0].Blockage = events.Schedule{{PathIndex: 0, Start: 0, Duration: 1, DepthDB: 30, RampTime: 1e-4}}
	scs[1].Blockage = events.Schedule{{PathIndex: 1, Start: 0, Duration: 1, DepthDB: 20, RampTime: 1e-4}}
	last := make([][]channel.PathState, 2)
	probe := multiFunc(func(t float64, ms []*channel.Model) Slot {
		for g, m := range ms {
			last[g] = append(last[g][:0], m.Paths...)
		}
		return Slot{}
	})
	if _, err := (Runner{}).RunMulti(scs, probe); err != nil {
		t.Fatal(err)
	}
	for g, paths := range last {
		if len(paths) < 2 {
			t.Fatalf("gNB %d has %d paths, want ≥ 2", g, len(paths))
		}
		for k, p := range paths {
			blocked := k == g // gNB 0's path 0, gNB 1's path 1
			if blocked != (p.ExtraLossDB > 19) {
				t.Fatalf("gNB %d path %d: extra loss %g dB, blocked=%v", g, k, p.ExtraLossDB, blocked)
			}
		}
	}
}

// multiFunc adapts a function to MultiScheme.
type multiFunc func(t float64, ms []*channel.Model) Slot

func (f multiFunc) Name() string                                  { return "func" }
func (f multiFunc) StepMulti(t float64, ms []*channel.Model) Slot { return f(t, ms) }

// TestRunMultiValidation: RunMulti refuses worlds that are not one slot
// grid of independent per-gNB scenarios, empty scheme lists, and two
// schemes under one name (the results map would keep only one).
func TestRunMultiValidation(t *testing.T) {
	ok := multiFunc(func(float64, []*channel.Model) Slot { return Slot{} })
	cases := []struct {
		name    string
		scs     func() []*Scenario
		schemes []MultiScheme
		want    string
	}{
		{"no scenarios", func() []*Scenario { return nil }, []MultiScheme{ok}, "no scenarios"},
		{"invalid scenario", func() []*Scenario {
			scs := twoGNBWorld(0.01)
			scs[1].UE = nil
			return scs
		}, []MultiScheme{ok}, "gNB 1"},
		{"duration differs", func() []*Scenario {
			scs := twoGNBWorld(0.01)
			scs[1].Duration = 0.02
			return scs
		}, []MultiScheme{ok}, "slot grid"},
		{"numerology differs", func() []*Scenario {
			scs := twoGNBWorld(0.01)
			scs[1].Num.SCSHz = 60e3
			return scs
		}, []MultiScheme{ok}, "slot grid"},
		{"shared fading", func() []*Scenario {
			scs := twoGNBWorld(0.01)
			f := NewFading(1, 0.1, rand.New(rand.NewSource(1)))
			scs[0].Fading, scs[1].Fading = f, f
			return scs
		}, []MultiScheme{ok}, "share one *Fading"},
		{"no schemes", func() []*Scenario { return twoGNBWorld(0.01) }, nil, "no schemes"},
		{"duplicate scheme names", func() []*Scenario { return twoGNBWorld(0.01) }, []MultiScheme{ok, ok}, `two schemes named "func"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := (Runner{}).RunMulti(tc.scs(), tc.schemes...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one mentioning %q", err, tc.want)
			}
		})
	}
	// Separate fading processes per gNB are the supported form.
	scs := twoGNBWorld(0.01)
	scs[0].Fading = NewFading(1, 0.1, rand.New(rand.NewSource(1)))
	scs[1].Fading = NewFading(1, 0.1, rand.New(rand.NewSource(2)))
	if _, err := (Runner{}).RunMulti(scs, ok); err != nil {
		t.Fatalf("independent fading refused: %v", err)
	}
}

// TestRunAllocsIndependentOfDuration pins the slot loop allocation-free in
// steady state: on a static two-gNB world with a constant-Slot scheme,
// RunMulti (and Run, its one-gNB form) makes as many allocations for a
// 500 ms run as for a 50 ms one.
func TestRunAllocsIndependentOfDuration(t *testing.T) {
	allocs := func(duration float64, multi bool) float64 {
		return testing.AllocsPerRun(3, func() {
			scs := twoGNBWorld(duration)
			scs[0].Blockage = events.Schedule{{PathIndex: 0, Start: 0.01, Duration: 0.02, DepthDB: 30, RampTime: 1e-3}}
			var err error
			if multi {
				_, err = (Runner{}).RunMulti(scs,
					Pinned{Scheme: fixedScheme{"a", Slot{SNRdB: 20}}},
					Pinned{Scheme: fixedScheme{"b", Slot{SNRdB: 5}}, GNB: 1})
			} else {
				_, err = (Runner{}).Run(scs[0], fixedScheme{"a", Slot{SNRdB: 20}})
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, multi := range []bool{true, false} {
		short, long := allocs(0.05, multi), allocs(0.5, multi)
		if short != long {
			t.Errorf("multi=%v: %v allocations for 50 ms, %v for 500 ms; the slot loop allocates", multi, short, long)
		}
	}
}
