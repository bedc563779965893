// Command mmmetro runs the city-scale sharded metro simulation
// (internal/metro): hundreds of independent cluster sites — each a full
// multi-cell CoMP cluster in a shared spatially-indexed hall — advance in
// lock-step frames over a work-stealing shard pool, with session churn
// (Poisson arrivals, exponential dwell) streamed into constant-size
// per-shard sketches.
//
// Usage:
//
//	mmmetro -clusters 64 -cells 2 -ues 2 -duration 0.6
//	mmmetro -clusters 256 -workers 8 -churn 2.5
//	mmmetro -clusters 64 -workers 1 -seed 7
//
// Every per-site stream is derived from -seed via seeds.Mix keyed only by
// the site index, shards are fixed site ranges executed whole, and the
// final reduction walks shards in index order — so stdout is byte-identical
// for any -workers value. CI diffs -workers 1 against -workers 8 on a
// 64-site churn run, and MMR_INCREMENTAL=off against the default
// incremental engine. Wall-clock throughput (UEs/sec) goes to stderr so it
// never perturbs the diff.
//
// -cpuprofile / -memprofile write pprof profiles of the run (see the README
// "Profiling the metro loop").
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"mmreliable/internal/core"
	"mmreliable/internal/metro"
	"mmreliable/internal/nr"
)

func main() {
	def := metro.DefaultConfig()
	clusters := flag.Int("clusters", 64, "number of independent cluster sites in the city")
	cells := flag.Int("cells", def.CellsPerCluster, "gNB cells per site")
	ues := flag.Int("ues", def.UEsPerCluster, "initial UEs per site")
	duration := flag.Float64("duration", 0.6, "simulated duration in seconds (per-site warmup included)")
	seed := flag.Int64("seed", 1, "base seed; per-site streams are derived via seeds.Mix")
	workers := flag.Int("workers", 0, "shard-pool workers (0 = GOMAXPROCS); output is identical for any value")
	shards := flag.Int("shards", 0, "shard count (0 = default 64); part of the determinism contract — fix it when comparing runs")
	churn := flag.Float64("churn", def.ChurnArrivalRate, "session arrivals per second per site (0 disables churn)")
	session := flag.Float64("session", def.MeanSessionS, "mean session length in seconds (exponential dwell)")
	mobile := flag.Float64("mobile", def.MobileFraction, "fraction of UEs that pace the hall at walking speed (0 = all static)")
	speed := flag.Float64("speed", def.SpeedMPS, "mobile-UE walking speed in m/s (0 = 1.4)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with `go tool pprof`)")
	memProfile := flag.String("memprofile", "", "write an allocation (heap) profile to this file at exit")
	showVersion := flag.Bool("version", false, "print version/build info and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(core.Version("mmmetro"))
		return
	}
	if err := core.CheckFlags("mmmetro",
		core.IntAtLeast("clusters", *clusters, 1),
		core.IntAtLeast("cells", *cells, 1),
		core.IntAtLeast("ues", *ues, 1),
		core.FloatPositive("duration", *duration),
		core.IntAtLeast("workers", *workers, 0),
		core.IntAtLeast("shards", *shards, 0),
		core.FloatAtLeast("churn", *churn, 0),
		core.FloatPositive("session", *session),
		core.FloatInRange("mobile", *mobile, 0, 1),
		core.FloatAtLeast("speed", *speed, 0),
	); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date allocation stats
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}()
	}

	cfg := def
	cfg.Seed = *seed
	cfg.Clusters = *clusters
	cfg.CellsPerCluster = *cells
	cfg.UEsPerCluster = *ues
	cfg.Workers = *workers
	cfg.Shards = *shards
	cfg.ChurnArrivalRate = *churn
	cfg.MeanSessionS = *session
	cfg.MobileFraction = *mobile
	cfg.SpeedMPS = *speed

	m, err := metro.New(nr.Mu3(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	start := time.Now()
	res := m.Run(*duration)
	elapsed := time.Since(start)

	res.Write(os.Stdout)

	// Wall-clock throughput: UE-frames advanced per second of real time.
	// Host-dependent, so stderr only — stdout stays diffable.
	ueFrames := float64(res.ResidentUEs) * float64(res.Frames)
	fmt.Fprintf(os.Stderr, "mmmetro: %d workers, %.2fs wall, %.0f UEs/sec\n",
		m.Workers(), elapsed.Seconds(), ueFrames/elapsed.Seconds())
}
