package experiments

import (
	"math/rand"
	"runtime"

	"mmreliable/internal/par"
	"mmreliable/internal/scratch"
	"mmreliable/internal/seeds"
)

// This file is the deterministic parallel experiment engine: every
// Monte-Carlo figure generator shards its independent trials across the
// process's worker pool (internal/par) via ParallelTrials, and every trial
// draws randomness from its own SplitMix-derived stream. Because a trial's
// stream depends only on (Config.Seed, experiment label, trial index) —
// never on scheduling order or worker count — the produced tables are
// byte-identical for any Workers setting. See DESIGN.md §"Parallel
// experiment engine".

// Experiment stream labels. Each experiment (and each independent stream
// family inside an experiment) owns one label; distinct labels guarantee
// distinct, collision-free RNG streams under the SplitMix64 derivation.
// Never reuse a label across experiments.
const (
	labelFig15d        int64 = 154
	labelFig16         int64 = 160
	labelFig17b        int64 = 172
	labelFig17c        int64 = 173
	labelFig18a        int64 = 181
	labelFig18Ensemble int64 = 182
	labelFig18Scenario int64 = 183
	labelFig19         int64 = 191
	labelAblationA1    int64 = 901
	labelAblationA2    int64 = 902
	labelAblationA3    int64 = 903
	labelAblationA4    int64 = 904
	labelAblationA5    int64 = 905
	labelExtIRS        int64 = 951
	labelExtHandover   int64 = 961
	labelExtStation    int64 = 981
	labelExtCluster    int64 = 971
	labelExtMetro      int64 = 941
	labelExtHybrid     int64 = 921
)

// mixSeed folds the parts into one well-mixed 63-bit stream seed via the
// shared SplitMix64 derivation (internal/seeds) — the same construction the
// station serving engine uses for per-UE session streams, so labels drawn
// from this file's namespace never collide with session streams either.
func mixSeed(parts ...int64) int64 { return seeds.Mix(parts...) }

// stream returns a deterministic generator for the given label path. The
// stream depends only on (Seed, labels...) — not on Workers, scheduling, or
// how many other streams were derived before it.
func (c Config) stream(labels ...int64) *rand.Rand {
	return rand.New(rand.NewSource(mixSeed(append([]int64{c.Seed}, labels...)...)))
}

// trialSeed derives the deterministic scenario/stream seed for one trial of
// one experiment. Exposed to experiments that must hand an int64 seed to a
// scenario constructor rather than an *rand.Rand.
func (c Config) trialSeed(label int64, trial int) int64 {
	return mixSeed(c.Seed, label, int64(trial))
}

// trialRNG is the per-trial generator ParallelTrials hands to the trial
// function: stream (Seed, label, trial).
func (c Config) trialRNG(label int64, trial int) *rand.Rand {
	return rand.New(rand.NewSource(c.trialSeed(label, trial)))
}

// workers resolves the Workers knob: 0 means GOMAXPROCS, anything else is
// clamped to at least 1.
func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ParallelTrials runs n independent Monte-Carlo trials of one experiment
// on up to Config.Workers workers through par.For and returns the
// per-trial results in trial order.
//
// Determinism contract: fn receives a private *rand.Rand derived from
// (cfg.Seed, label, trial) by SplitMix64 mixing, and its result lands at
// out[trial]. Neither the stream nor the slot depends on which worker ran
// the trial or in what order, so the returned slice is byte-identical for
// any worker count — Workers only changes wall-clock time. fn must not
// share mutable state across calls (each trial builds its own schemes,
// scenarios, and generators).
//
// Workspace contract: fn additionally receives its worker's scratch arena,
// Reset before every trial. Trials on the same worker reuse one warm arena,
// so the per-trial DSP hot paths (super-resolution fits, manager
// maintenance) run allocation-free after the first trial. Checkouts are
// zeroed, so arena reuse cannot leak state between trials — determinism is
// untouched. fn must not retain workspace-backed slices past its return.
func ParallelTrials[T any](cfg Config, label int64, n int, fn func(trial int, rng *rand.Rand, ws *scratch.Workspace) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	w := cfg.workers()
	ws := make([]*scratch.Workspace, min(w, n))
	par.For(w, n, func(worker, i int) {
		if ws[worker] == nil {
			ws[worker] = scratch.New()
		}
		ws[worker].Reset()
		out[i] = fn(i, cfg.trialRNG(label, i), ws[worker])
	})
	return out
}
