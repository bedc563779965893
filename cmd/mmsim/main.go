// Command mmsim runs one end-to-end mmWave link simulation and prints the
// per-scheme reliability/throughput summary (optionally a per-slot trace).
//
// Usage:
//
//	mmsim -scenario outdoor -schemes mmreliable,reactive,widebeam
//	mmsim -scenario indoor -duration 2 -seed 7 -trace
//	mmsim -scenario rotating-ue -schemes mmreliable,reactive
//	mmsim -scenario outdoor -schemes mmreliable,reactive,beamspy,widebeam -workers 4
//
// Scenarios: indoor (static conference room), indoor-mobile (translation +
// blocker), outdoor (thin-margin street canyon with mobility + blockage),
// walking-blocker (Fig. 16), small-spread (combining regime, mobile),
// rotating-ue (directional UE at 24°/s).
//
// Each scheme replays its own deterministic instance of the scenario
// (scenarios are pure functions of the seed), so -workers > 1 runs the
// schemes concurrently with byte-identical output.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"

	"mmreliable/internal/antenna"
	"mmreliable/internal/baselines"
	"mmreliable/internal/core"
	"mmreliable/internal/core/manager"
	"mmreliable/internal/nr"
	"mmreliable/internal/par"
	"mmreliable/internal/sim"
	"mmreliable/internal/stats"
)

func main() {
	scenario := flag.String("scenario", "indoor", "indoor | indoor-mobile | outdoor | walking-blocker | small-spread | rotating-ue")
	schemes := flag.String("schemes", "mmreliable,reactive", "comma-separated: mmreliable, reactive, beamspy, widebeam, oracle")
	seed := flag.Int64("seed", 1, "random seed")
	duration := flag.Float64("duration", 1.0, "measured duration in seconds")
	trace := flag.Bool("trace", false, "print a per-slot SNR trace (decimated)")
	workers := flag.Int("workers", 0, "concurrent scheme replays (0 = GOMAXPROCS); output is identical for any value")
	showVersion := flag.Bool("version", false, "print version/build info and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(core.Version("mmsim"))
		return
	}
	if err := core.CheckFlags("mmsim",
		core.FloatPositive("duration", *duration),
		core.IntAtLeast("workers", *workers, 0),
	); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Validate the scenario name (and fetch the budget) once up front.
	_, budget, err := sim.Named(*scenario, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	u := func() *antenna.ULA { return antenna.NewULA(8, 28e9) }
	rng := func() *rand.Rand { return rand.New(rand.NewSource(*seed)) }
	// The scheme table: every name -schemes accepts, and how to build it.
	mk := map[string]func() (sim.Scheme, error){
		"mmreliable": func() (sim.Scheme, error) {
			return manager.New("mmreliable", u(), budget, nr.Mu3(), manager.DefaultConfig(), rng())
		},
		"reactive": func() (sim.Scheme, error) { return baselines.NewSingleBeamReactive(u(), budget, nr.Mu3(), rng()) },
		"beamspy":  func() (sim.Scheme, error) { return baselines.NewBeamSpy(u(), budget, nr.Mu3(), rng()) },
		"widebeam": func() (sim.Scheme, error) { return baselines.NewWideBeam(u(), budget, nr.Mu3(), rng()) },
		"oracle":   func() (sim.Scheme, error) { return baselines.NewOracle(budget, nr.NumSC), nil },
	}
	// Validate scheme names up front so bad -schemes fail before any replay;
	// a repeated name would replay twice into one table row.
	names := []string{}
	seen := map[string]bool{}
	for _, name := range strings.Split(*schemes, ",") {
		name = strings.TrimSpace(name)
		if mk[name] == nil {
			fmt.Fprintf(os.Stderr, "unknown scheme %q\n", name)
			os.Exit(1)
		}
		if seen[name] {
			fmt.Fprintf(os.Stderr, "duplicate scheme %q\n", name)
			os.Exit(1)
		}
		seen[name] = true
		names = append(names, name)
	}

	// Replay the scenario once per scheme, sharded through par.For.
	// Every replay rebuilds the scenario from the seed, so each scheme sees
	// identical channel realizations and the output does not depend on the
	// worker count.
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	results := make([]map[string]sim.Result, len(names))
	errs := make([]error, len(names))
	par.For(w, len(names), func(_, i int) {
		sc, _, err := sim.Named(*scenario, *seed)
		if err != nil {
			errs[i] = err
			return
		}
		sc.Duration = *duration
		s, err := mk[names[i]]()
		if err != nil {
			errs[i] = err
			return
		}
		runner := sim.Runner{KeepSeries: *trace, Warmup: sim.StandardWarmup}
		results[i], errs[i] = runner.Run(sc, s)
	})

	out := map[string]sim.Result{}
	for i := range names {
		if errs[i] != nil {
			fmt.Fprintln(os.Stderr, errs[i])
			os.Exit(1)
		}
		for n, r := range results[i] {
			out[n] = r
		}
	}

	table := stats.NewTable(fmt.Sprintf("scenario %s (seed %d, %.1f s)", *scenario, *seed, *duration),
		"scheme", "reliability", "thr_Mbps", "snr_dB", "trp_Mbps", "outages")
	sorted := make([]string, 0, len(out))
	for n := range out {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		s := out[n].Summary
		table.AddRow(n, stats.Fmt(s.Reliability), stats.Fmt(s.MeanThroughput/1e6),
			stats.Fmt(s.MeanSNRdB), stats.Fmt(s.TRProduct/1e6), fmt.Sprintf("%d", s.OutageEvents))
	}
	table.Render(os.Stdout)

	if *trace {
		for _, n := range sorted {
			res := out[n]
			fmt.Printf("\n-- %s slot trace (every 40th slot) --\n", n)
			for i := range res.Series {
				if i%40 == 0 {
					state := "data"
					if res.Series[i].Training {
						state = "train"
					}
					fmt.Printf("t=%.4f snr=%6.2f dB  %s\n", res.Times[i], res.Series[i].SNRdB, state)
				}
			}
		}
	}
}
