// Command perfbench is the repository benchmark: three workloads that
// exercise the city simulation, the serving daemon and the figure
// regeneration, each checked for correctness and measured end to end, and
// a traced mode that reports per-layer metrics. See README.md for the
// workloads, the metrics and the layer each metric belongs to.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	perfbench --workload city-mixed --seed 1 --seconds 20 --trace 0
//	perfbench --workload all --seed 1 --seconds 20
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics (end-to-end metrics untraced,
// per-layer metrics traced). --workload all runs every workload untraced
// and traced, prints every metric with its unit and sample count, and the
// tracing overhead; it exits non-zero if any correctness check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// options are the command-line inputs of one workload run.
type options struct {
	seed    int64
	seconds time.Duration
}

// workloads maps each workload name to its run function, in run order.
var workloads = []struct {
	name string
	run  func(options, *tracer) (*report, error)
}{
	{"city-mixed", runCity},
	{"daemon-scraped", runDaemon},
	{"figures", runFigures},
}

func main() {
	workload := flag.String("workload", "", "city-mixed, daemon-scraped, figures, or all")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 20, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second))}
	if *workload == "all" {
		os.Exit(runAll(o))
	}
	for _, w := range workloads {
		if w.name == *workload {
			os.Exit(runOne(w.name, w.run, o, *trace == 1))
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
	os.Exit(2)
}

// runOne runs one workload, prints its metrics as text and then the JSON
// result line, and returns the exit code.
func runOne(name string, run func(options, *tracer) (*report, error), o options, traced bool) int {
	r, tr, code := execute(name, run, o, traced)
	if r == nil {
		return code
	}
	metrics := r.e2e
	if traced {
		metrics = r.layer
	}
	printText(os.Stdout, name, r, metrics)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, map[string]value{}}
	for _, s := range metrics {
		out.Metrics[s.name] = value{s.value, s.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 3
	}
	fmt.Println(string(line))
	if traced {
		if err := tr.write(spansPath(name, o.seed)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 3
		}
	}
	return code
}

// execute runs one workload and returns its report (nil on error or an
// invalid run), its tracer, and the exit code: 0 when every check
// passed, 1 when one failed, 3 when the run errored or was invalid.
func execute(name string, run func(options, *tracer) (*report, error), o options, traced bool) (*report, *tracer, int) {
	tr := newTracer(traced)
	r, err := run(o, tr)
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
		return nil, nil, 3
	}
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", name, p)
	}
	if len(r.problems) > 0 {
		return r, tr, 1
	}
	return r, tr, 0
}

// spansPath is where a traced run writes its spans, under the build
// directory run.sh uses.
func spansPath(workload string, seed int64) string {
	return filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
}

// printText prints the run's fingerprint, tally and metrics, one per
// line with unit and sample count.
func printText(w io.Writer, name string, r *report, metrics []sample) {
	fmt.Fprintf(w, "%s fingerprint %s\n", name, r.fingerprint)
	fmt.Fprintf(w, "%s operations attempted=%d failed=%d\n", name, r.attempted, r.failed)
	for _, ss := range [][]sample{metrics, r.notes} {
		for _, s := range ss {
			fmt.Fprintf(w, "%s %-34s %14.6g %-6s n=%d\n", name, s.name, s.value, s.unit, s.n)
		}
	}
}

// runAll runs every workload untraced and then traced, printing both
// metric sets and the tracing overhead on each workload's throughput.
func runAll(o options) int {
	code := 0
	for _, wl := range workloads {
		plain, _, c1 := execute(wl.name, wl.run, o, false)
		traced, _, c2 := execute(wl.name, wl.run, o, true)
		code = max(code, c1, c2)
		if plain == nil || traced == nil {
			continue
		}
		printText(os.Stdout, wl.name, plain, plain.e2e)
		printText(os.Stdout, wl.name+" (traced)", traced, traced.layer)
		base, withSpans := find(plain.e2e, "work_per_s"), find(traced.layer, "trace.work_per_s")
		fmt.Printf("%s tracing overhead on work_per_s: %.2f%% (untraced %.6g, traced %.6g)\n",
			wl.name, 100*(base-withSpans)/base, base, withSpans)
	}
	return code
}

func find(ss []sample, name string) float64 {
	for _, s := range ss {
		if s.name == name {
			return s.value
		}
	}
	return 0
}
