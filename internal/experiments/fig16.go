package experiments

import (
	"math/rand"

	"mmreliable/internal/antenna"
	"mmreliable/internal/baselines"
	"mmreliable/internal/core/manager"
	"mmreliable/internal/link"
	"mmreliable/internal/nr"
	"mmreliable/internal/scratch"
	"mmreliable/internal/sim"
	"mmreliable/internal/stats"
)

// Fig16Blockage reproduces Fig. 16: the SNR time series of a static indoor
// link while a blocker walks across first the NLOS then the LOS beam, for
// mmReliable's multi-beam versus a single-beam link. Paper: the multi-beam
// dips only ≈7 dB (no outage) while the single beam crashes ≈26 dB below
// the 6 dB outage threshold.
func Fig16Blockage(cfg Config) *stats.Table {
	budget := sim.IndoorBudget()
	// The two scheme runs are independent replays of the same scenario, so
	// they shard across the trial runner; each builds its scheme from its
	// own derived RNG stream (previously the reactive baseline seeded
	// ad hoc from cfg.Seed+161, which could collide with other streams).
	outs := ParallelTrials(cfg, labelFig16, 2, func(trial int, rng *rand.Rand, ws *scratch.Workspace) map[string]sim.Result {
		var scheme sim.Scheme
		var err error
		if trial == 0 {
			var mgr *manager.Manager
			mgr, err = manager.New("mmreliable", antenna.NewULA(8, 28e9), budget, nr.Mu3(), manager.DefaultConfig(), rng)
			if mgr != nil {
				mgr.UseWorkspace(ws)
			}
			scheme = mgr
		} else {
			scheme, err = baselines.NewSingleBeamReactive(antenna.NewULA(8, 28e9), budget, nr.Mu3(), rng)
		}
		if err != nil {
			panic(err)
		}
		runner := sim.Runner{KeepSeries: true, Warmup: sim.StandardWarmup}
		out, err := runner.Run(sim.WalkingBlockerIndoor(cfg.Seed), scheme)
		if err != nil {
			panic(err)
		}
		return out
	})
	mm := outs[0]["mmreliable"]
	re := outs[1]["reactive"]

	t := stats.NewTable("Fig 16 — SNR under a walking blocker (dB)",
		"t_s", "multibeam", "singlebeam")
	stride := len(mm.Series) / 40
	if stride < 1 {
		stride = 1
	}
	var mmMin, reMin = 999.0, 999.0
	var mmMax float64
	for i := 0; i < len(mm.Series); i++ {
		if mm.Series[i].SNRdB < mmMin {
			mmMin = mm.Series[i].SNRdB
		}
		if mm.Series[i].SNRdB > mmMax {
			mmMax = mm.Series[i].SNRdB
		}
		if i < len(re.Series) && re.Series[i].SNRdB < reMin {
			reMin = re.Series[i].SNRdB
		}
		if i%stride == 0 {
			snrR := re.Series[i].SNRdB
			t.AddRow(stats.Fmt(mm.Times[i]), stats.Fmt(mm.Series[i].SNRdB), stats.Fmt(snrR))
		}
	}
	t.AddRow("multibeam_dip_dB", stats.Fmt(mmMax-mmMin), "")
	t.AddRow("singlebeam_min_snr", "", stats.Fmt(reMin))
	t.AddRow("multibeam_min_snr", stats.Fmt(mmMin), "")
	t.AddRow("outage_threshold", stats.Fmt(link.OutageThresholdDB), stats.Fmt(link.OutageThresholdDB))
	t.AddRow("mm_reliability", stats.Fmt(mm.Summary.Reliability), stats.Fmt(re.Summary.Reliability))
	return t
}
