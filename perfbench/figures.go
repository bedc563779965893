package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime/debug"
	"time"

	"mmreliable/internal/experiments"
)

// figureWorkers is the trial-pool size of every experiments run.
const figureWorkers = 2

// namedExperiments are the experiments the per-layer metrics time
// separately: the three that dominate a pass, plus the metro and hybrid
// extensions (e8 is the only caller of the hybrid tier).
var namedExperiments = []struct{ id, metric string }{
	{"18b", "experiments.fig18b_s"},
	{"a2", "experiments.a2_s"},
	{"a3", "experiments.a3_s"},
	{"e7", "experiments.e7_s"},
	{"e8", "experiments.e8_s"},
}

// pass is one regeneration of every table.
type pass struct {
	hash  string             // SHA-256 of every rendered table, in paper order
	secs  map[string]float64 // per-experiment host seconds
	total float64
}

// figuresPass runs every experiment once under a span each. Rendered
// tables carry no timing, so the hash depends on the simulated results
// only.
func figuresPass(tr *tracer, cfg experiments.Config) pass {
	p := pass{secs: map[string]float64{}}
	h := sha256.New()
	t0 := time.Now()
	for _, e := range experiments.All() {
		id := tr.begin("experiments." + e.ID + ".Run")
		t := time.Now()
		table := e.Run(cfg)
		p.secs[e.ID] = time.Since(t).Seconds()
		tr.end(id)
		fmt.Fprintf(h, "fig %s\n", e.ID)
		table.Render(h)
	}
	p.total = time.Since(t0).Seconds()
	p.hash = hex.EncodeToString(h.Sum(nil))
	return p
}

// experimentsLayer reports the per-experiment medians over passes.
func experimentsLayer(r *report, passes []pass, d windowDelta) {
	others := make([]float64, len(passes))
	for i, p := range passes {
		others[i] = p.total
	}
	for _, ne := range namedExperiments {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = p.secs[ne.id]
			others[i] -= p.secs[ne.id]
		}
		r.addLayer(ne.metric, median(xs), "s", len(xs))
	}
	r.addLayer("experiments.other_s", median(others), "s", len(others))
	r.addLayer("experiments.cpu_busy_frac", d.cpuBusy(), "ratio", 1)
}

// runFigures is the figures workload: every table at full Monte-Carlo
// volume, pass after pass until the time budget is spent (at least two
// passes after the warm-up pass; every pass must hash the same).
func runFigures(o options, tr *tracer) (*report, error) {
	r := &report{}
	quick := experiments.Config{Seed: o.seed, Quick: true, Workers: figureWorkers}
	var setups []float64
	var quickHash string
	for i := 0; i < setupReps; i++ {
		p := figuresPass(tr, quick)
		setups = append(setups, p.total)
		if i == 0 {
			quickHash = p.hash
		}
		r.check(p.hash == quickHash, "quick pass %d table hash %s != %s", i, p.hash, quickHash)
	}

	// The first full-volume pass runs 1.5–2× slower than the rest, so it
	// is a warm-up: timed on its own, outside the window. Counting it in
	// the window made the median jump with whether two or three passes
	// fit. It also measures heap_mb.
	full := experiments.Config{Seed: o.seed, Workers: figureWorkers}
	first, heap, cycles := heapPass(tr, full)
	r.attempted += len(first.secs)
	var passes []pass
	w := openWindow()
	for len(passes) < 2 || time.Since(w.wall) < o.seconds {
		p := figuresPass(tr, full)
		passes = append(passes, p)
		r.check(p.hash == first.hash, "pass %d table hash %s != %s", len(passes), p.hash, first.hash)
		r.attempted += len(p.secs)
	}
	d := w.close()

	r.fingerprint = "tables=" + first.hash[:16]
	r.addE2E("work_per_s", float64(len(passes))/d.wallS, "1/s", len(passes))
	totals := make([]float64, len(passes))
	for i, p := range passes {
		totals[i] = p.total
	}
	r.addE2E("latency_ms_p50", 1e3*median(totals), "ms", len(passes))
	r.addE2E("setup_s", median(setups), "s", len(setups))
	r.addE2E("heap_mb", heap, "MiB", cycles)
	r.addNote("figures_s", median(totals), "s", len(passes))
	if tr.on {
		experimentsLayer(r, passes, d)
		r.addLayer("experiments.first_pass_s", first.total, "s", 1)
		r.addRuntime(d)
		r.addLayer("trace.work_per_s", float64(len(passes))/d.wallS, "1/s", len(passes))
		if err := metroProbe(r, tr, o.seed); err != nil {
			return nil, err
		}
		if err := layerProbes(r, tr, o.seed, cityConfig(o.seed, 32, 2)); err != nil {
			return nil, err
		}
		if err := serveProbe(r, tr, o.seed); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// heapGCPercent is the collector's target during the heap pass. Most
// experiments keep under 1 MiB live, and a few hold about 20 MiB for a
// moment. At the default of 100 the collector caught that peak only in
// part: the largest live heap over a window's passes ranged from 13 to
// 20 MiB from run to run. At 10 it collects about four times as often
// and read 19.5 to 20.4 MiB.
const heapGCPercent = 10

// heapPass runs one full-volume pass with the collector at heapGCPercent
// and returns it with the largest live heap a collection marked during
// it, in MiB, and the number of collections.
func heapPass(tr *tracer, cfg experiments.Config) (pass, float64, int) {
	defer debug.SetGCPercent(debug.SetGCPercent(heapGCPercent))
	w := watchHeap()
	p := figuresPass(tr, cfg)
	mib, cycles := w.stop()
	return p, mib, cycles
}

// experimentsProbe times one reduced-volume pass of every experiment for
// the workloads that do not regenerate the figures, so every traced run
// reports the experiments metrics.
func experimentsProbe(r *report, tr *tracer, seed int64) {
	id := tr.begin("probe.experiments")
	defer tr.end(id)
	w := openWindow()
	p := figuresPass(tr, experiments.Config{Seed: seed, Quick: true, Workers: figureWorkers})
	experimentsLayer(r, []pass{p}, w.close())
	r.addLayer("experiments.first_pass_s", p.total, "s", 1)
}
