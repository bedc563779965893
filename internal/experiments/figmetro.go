package experiments

import (
	"fmt"

	"mmreliable/internal/metro"
	"mmreliable/internal/nr"
	"mmreliable/internal/stats"
)

// ExtensionMetro is the city-scale experiment (internal/metro): it sweeps
// the number of independent cluster sites advancing in lock-step over the
// sharded worker pool, with Poisson session churn streamed into constant-
// size per-shard sketches, and reports the folded metro-wide aggregate —
// sessions served, serving-leg and selection-diversity reliability over the
// concatenated slot streams, the worst single blackout anywhere in the
// city, and beam-management overhead. The §5 story at metro scale: per-UE
// reliability and overhead must hold flat as sites multiply, because sites
// are RF-isolated and only contend for compute — the layer's job is to
// prove the aggregation machinery (spatial-indexed tracing, shard pool,
// sketch folds) sustains the population, not to change the physics.
//
// Each row builds its metro from (Seed, labelExtMetro, sites), so growing
// the city redraws the whole population (sites are not nested across rows),
// and every row is byte-identical at any Workers value (the metro's
// determinism contract — shards are fixed site ranges, reduction is
// index-ordered).
func ExtensionMetro(cfg Config) *stats.Table {
	sites := []int{8, 32, 64}
	duration := 0.6
	if cfg.Quick {
		sites = []int{4, 8}
		duration = 0.4
	}
	t := stats.NewTable(
		"Extension E7 — city-scale sharded metro with session churn",
		"sites", "cells", "sessions", "rel_serving", "rel_diversity",
		"worst_out_ms", "handovers", "overhead_pct")
	for _, n := range sites {
		mcfg := metro.DefaultConfig()
		mcfg.Seed = cfg.trialSeed(labelExtMetro, n)
		mcfg.Clusters = n
		mcfg.Workers = cfg.Workers
		m, err := metro.New(nr.Mu3(), mcfg)
		if err != nil {
			panic(err)
		}
		res := m.Run(duration)
		t.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", res.Cells),
			fmt.Sprintf("%d", res.UEs),
			stats.Fmt(res.Serving.Reliability), stats.Fmt(res.Diversity.Reliability),
			stats.Fmt(res.WorstOutageMs),
			fmt.Sprintf("%d", res.Handovers),
			stats.Fmt(res.OverheadPct))
	}
	return t
}
