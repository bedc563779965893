package sim

import (
	"reflect"
	"testing"

	"mmreliable/internal/channel"
	"mmreliable/internal/env"
)

// modelState extracts the comparable channel content of a model (everything
// ChannelInto is contracted to produce; the cache and stamp are
// implementation detail, and the UE beam is the stepping scheme's).
type modelState struct {
	Band     env.Band
	TxN, RxN int
	Paths    []channel.PathState
}

func stateOf(m *channel.Model) modelState {
	s := modelState{Band: m.Band, Paths: append([]channel.PathState(nil), m.Paths...)}
	if m.Tx != nil {
		s.TxN = m.Tx.N
	}
	if m.Rx != nil {
		s.RxN = m.Rx.N
	}
	return s
}

// TestChannelIntoQuiescentSkipBitIdentical drives the persistent-model
// ChannelInto slot loop (where the incremental engine's quiescent skip and
// trace cache live) against a twin scenario evaluated with a fresh model
// every slot (a fresh model can never be skipped: it is not the last model
// written). Every slot's channel content must match bit for bit, across
// static, blocked and mobile conditions. With MMR_INCREMENTAL=off both
// sides take the full-recompute path and the test pins the oracle against
// itself.
func TestChannelIntoQuiescentSkipBitIdentical(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Scenario
	}{
		{"static", func() *Scenario { sc := StaticIndoor(3); sc.Fading = nil; return sc }},
		{"walking-blocker", func() *Scenario { sc := WalkingBlockerIndoor(3); sc.Fading = nil; return sc }},
		{"mobile-blocked", func() *Scenario { sc := IndoorMobileBlocked(3); sc.Fading = nil; return sc }},
		{"mobile-indexed", func() *Scenario {
			sc := IndoorMobileBlocked(5)
			sc.Fading = nil
			sc.Env.MaxRangeM = 40
			sc.Env.BuildIndex() // the regime where TraceAppendCached engages
			return sc
		}},
		{"fading", func() *Scenario { return WalkingBlockerIndoor(3) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			inc, ref := tc.build(), tc.build()
			m := &channel.Model{Reuse: true}
			slotDur := inc.Num.SlotDuration()
			for s := 0; s < 400; s++ {
				tm := float64(s) * slotDur
				inc.ChannelInto(tm, m)
				want := stateOf(ref.ChannelAt(tm))
				if got := stateOf(m); !reflect.DeepEqual(got, want) {
					t.Fatalf("slot %d (t=%.4f): persistent model diverged\ngot:  %+v\nwant: %+v",
						s, tm, got, want)
				}
			}
		})
	}
}

// TestStableIDMapBounded is the long-run memory regression test for the
// stable path-id map: streaming far more distinct reflecting-wall
// identities through pathIDsFor than maxStableIDs must leave the map (and
// the eviction FIFO's backing array) bounded, keep the id assignment
// deterministic, and never evict the t = 0 ranks that blockage schedules
// address.
func TestStableIDMapBounded(t *testing.T) {
	run := func() (*Scenario, []int) {
		sc := StaticIndoor(1)
		sc.Fading = nil
		var got []int
		for i := 0; i < 3*maxStableIDs; i++ {
			paths := []env.Path{{Via: 100 + i, Via2: -1, LossDB: 60}}
			got = append(got, sc.pathIDsFor(paths)[0])
		}
		return sc, got
	}
	sc, ids1 := run()
	if n := len(sc.initialVias); n > maxStableIDs {
		t.Fatalf("initialVias grew to %d entries, cap is %d", n, maxStableIDs)
	}
	if live := len(sc.viaOrder) - sc.viaHead; live > maxStableIDs {
		t.Fatalf("eviction FIFO holds %d live entries, cap is %d", live, maxStableIDs)
	}
	// The FIFO backing compacts every maxStableIDs evictions; with append's
	// growth factor it peaks below 3× the cap regardless of run length.
	if c := cap(sc.viaOrder); c > 3*maxStableIDs {
		t.Fatalf("eviction FIFO backing grew to %d, want bounded near %d", c, maxStableIDs)
	}
	// Initial ranks are pinned: the t = 0 paths must still resolve to their
	// original ranks after the churn.
	init := sc.Env.Trace(sc.GNB, sc.UE.At(0))
	if sc.MaxPaths > 0 && len(init) > sc.MaxPaths {
		init = init[:sc.MaxPaths]
	}
	ids := sc.pathIDsFor(init)
	for rank := range init {
		if ids[rank] != rank {
			t.Fatalf("initial path rank %d evicted: resolved to id %d", rank, ids[rank])
		}
	}
	// Determinism: a second identical run assigns identical ids.
	_, ids2 := run()
	if !reflect.DeepEqual(ids1, ids2) {
		t.Fatal("stable-id assignment is not deterministic under eviction")
	}
}
