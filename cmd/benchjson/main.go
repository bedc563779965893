// Command benchjson converts `go test -bench` text output into a compact
// JSON map for machine comparison across commits:
//
//	go test -bench 'Probe$|EffectiveWidebandBatch$' -benchmem -run '^$' ./... | benchjson > BENCH_results.json
//
// Each benchmark line
//
//	BenchmarkProbe-8   41946   6089 ns/op   0 B/op   0 allocs/op
//
// becomes an entry keyed by the benchmark name with the -cpu suffix
// stripped:
//
//	"BenchmarkProbe": {"ns_per_op": 6089, "bytes_per_op": 0, "allocs_per_op": 0}
//
// Custom b.ReportMetric units (e.g. the metro layer's "UEs/sec" or the
// station's "sessionslots/s") are captured under a "custom" map keyed by
// the unit string, alongside the standard trio.
//
// Lines that are not benchmark results (headers, PASS/ok trailers, figure
// tables printed to stderr by the harness) are ignored, so the whole
// `go test -bench` stdout can be piped through unfiltered. Metadata fields
// (`_goos`, `_pkg`, ...) are copied from the harness preamble when present.
//
// Comparison mode flags regressions between two result sets:
//
//	go test -bench ... -benchmem -run '^$' . | benchjson -compare BENCH_results.json
//	benchjson -compare old.json new.json
//
// The new side is a positional file or stdin; stdin may be either a JSON
// map produced by this tool or raw `go test -bench` text (auto-detected).
// A benchmark regresses when its ns/op grows by more than 15% (shared-CI
// noise floor) AND by more than an absolute 250 ns floor — sub-microsecond
// benchmarks jitter by more than 15% on timer noise alone — or when its
// allocs/op increases at all. Custom b.ReportMetric units are compared
// too, with the same 15% noise floor: rate units ("UEs/sec",
// "sessionslots/s") regress when they SHRINK past the floor, cost units
// (everything else, e.g. "ns/sessionslot") when they grow. A slower
// new-side result sampled with fewer than 20 iterations is reported as
// "skip" rather than gated on — the same guard applies to custom-metric
// regressions. Metadata and archival keys (leading underscore, e.g.
// `_baseline`) are skipped. The report goes to stdout; with -strict a
// regression also makes the exit status 1, so CI can choose between an
// advisory report and a hard gate.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"mmreliable/internal/core"
)

// Result is one benchmark's parsed metrics. Custom holds any
// b.ReportMetric units beyond the standard trio (e.g. "UEs/sec",
// "sessionslots/s"), keyed by the unit string verbatim.
type Result struct {
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *int64             `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64             `json:"allocs_per_op,omitempty"`
	Custom      map[string]float64 `json:"custom,omitempty"`
}

func main() {
	compare := flag.String("compare", "", "old BENCH_results.json to compare against; new results from a positional file or stdin")
	strict := flag.Bool("strict", false, "with -compare: exit 1 when a regression is flagged")
	showVersion := flag.Bool("version", false, "print version/build info and exit")
	flag.Parse()
	if *showVersion {
		fmt.Println(core.Version("benchjson"))
		return
	}
	if err := core.CheckFlags("benchjson",
		core.FlagRequires("strict", *strict, "compare", *compare != ""),
	); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *compare != "" {
		os.Exit(runCompare(*compare, flag.Arg(0), *strict))
	}
	meta := map[string]string{}
	results := map[string]Result{}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			meta["_goos"] = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			meta["_goarch"] = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			meta["_pkg"] = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			meta["_cpu"] = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		}
		name, res, ok := parseLine(line)
		if ok {
			results[name] = res
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, meta, results); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parseLine extracts one benchmark result; ok is false for non-benchmark
// lines.
func parseLine(line string) (string, Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", Result{}, false
	}
	// Strip the -<GOMAXPROCS> suffix so keys are stable across machines.
	name := f[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return "", Result{}, false
	}
	res := Result{Iterations: iters}
	ok := false
	for i := 2; i+1 < len(f); i += 2 {
		val, unit := f[i], f[i+1]
		switch unit {
		case "ns/op":
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				res.NsPerOp = v
				ok = true
			}
		case "B/op":
			if v, err := strconv.ParseInt(val, 10, 64); err == nil {
				res.BytesPerOp = &v
			}
		case "allocs/op":
			if v, err := strconv.ParseInt(val, 10, 64); err == nil {
				res.AllocsPerOp = &v
			}
		default:
			// b.ReportMetric custom unit (e.g. "UEs/sec"). Units are
			// non-numeric by construction, so a parseable value plus any
			// other unit string is a metric pair.
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				if res.Custom == nil {
					res.Custom = map[string]float64{}
				}
				res.Custom[unit] = v
			}
		}
	}
	return name, res, ok
}

// emit writes metadata and results as one deterministic (sorted-key) JSON
// object.
func emit(w *os.File, meta map[string]string, results map[string]Result) error {
	out := map[string]any{}
	for k, v := range meta {
		out[k] = v
	}
	for k, v := range results {
		out[k] = v
	}
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("{\n")
	for i, k := range keys {
		kb, _ := json.Marshal(k)
		vb, err := json.Marshal(out[k])
		if err != nil {
			return err
		}
		b.Write(kb)
		b.WriteString(": ")
		b.Write(vb)
		if i < len(keys)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("}\n")
	_, err := w.WriteString(b.String())
	return err
}

// nsRegressionFrac is the ns/op growth tolerated before a comparison flags
// a regression: shared CI runners jitter by ~10%, so the gate sits at 15%.
const nsRegressionFrac = 0.15

// nsRegressionFloorNs is the absolute ns/op growth a benchmark must also
// exceed before it counts as a regression. Sub-microsecond benchmarks
// jitter by tens of nanoseconds on shared runners — far more than 15% of a
// 100 ns/op result — so the flat fractional rule alone flags pure timer
// noise. A real regression on such a benchmark still trips the gate once it
// costs more than this floor in absolute terms.
const nsRegressionFloorNs = 250.0

// minCompareIterations is the iteration count below which a new-side result
// is considered too poorly sampled to gate on: a handful of iterations
// (e.g. -benchtime 10x smoke runs) measures startup effects, not steady
// state. Such comparisons are reported as "skip" instead of regressing.
const minCompareIterations = 20

// regressed reports whether new ns/op is a flagged regression over old:
// both the fractional gate (nsRegressionFrac) and the absolute floor
// (nsRegressionFloorNs) must be exceeded.
func regressed(oldNs, newNs float64) bool {
	return oldNs > 0 &&
		newNs > oldNs*(1+nsRegressionFrac) &&
		newNs-oldNs > nsRegressionFloorNs
}

// higherIsBetter classifies a custom metric unit by direction: rate units
// ("UEs/sec", "sessionslots/s", anything per second) improve upward, cost
// units ("ns/sessionslot") improve downward.
func higherIsBetter(unit string) bool {
	return strings.HasSuffix(unit, "/s") || strings.HasSuffix(unit, "/sec")
}

// customRegressions returns the custom metrics of old that regressed in new
// (direction-aware, same fractional noise floor as ns/op; metrics missing
// from the new side are ignored — a changed benchmark simply stops
// reporting them).
func customRegressions(old, new Result) []string {
	var out []string
	for unit, ov := range old.Custom {
		nv, ok := new.Custom[unit]
		if !ok || ov == 0 {
			continue
		}
		if higherIsBetter(unit) {
			if nv < ov*(1-nsRegressionFrac) {
				out = append(out, fmt.Sprintf("%s %.5g -> %.5g", unit, ov, nv))
			}
		} else if nv > ov*(1+nsRegressionFrac) {
			out = append(out, fmt.Sprintf("%s %.5g -> %.5g", unit, ov, nv))
		}
	}
	sort.Strings(out)
	return out
}

// runCompare loads the old results from oldPath and the new results from
// newPath (or stdin when empty), prints a comparison report, and returns
// the process exit code: 1 when strict and at least one benchmark
// regressed, 0 otherwise.
func runCompare(oldPath, newPath string, strict bool) int {
	oldRes, err := loadResultsFile(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	var newBytes []byte
	if newPath != "" {
		newBytes, err = os.ReadFile(newPath)
	} else {
		newBytes, err = io.ReadAll(os.Stdin)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	newRes, err := parseResults(newBytes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	names := make([]string, 0, len(oldRes))
	for name := range oldRes {
		names = append(names, name)
	}
	sort.Strings(names)
	regressions := 0
	for _, name := range names {
		o := oldRes[name]
		n, ok := newRes[name]
		if !ok {
			fmt.Printf("MISSING  %s: present in old results only\n", name)
			continue
		}
		ratio := 0.0
		if o.NsPerOp > 0 {
			ratio = n.NsPerOp / o.NsPerOp
		}
		slower := regressed(o.NsPerOp, n.NsPerOp)
		moreAllocs := o.AllocsPerOp != nil && n.AllocsPerOp != nil && *n.AllocsPerOp > *o.AllocsPerOp
		customBad := customRegressions(o, n)
		underSampled := n.Iterations > 0 && n.Iterations < minCompareIterations
		switch {
		case (slower || len(customBad) > 0) && underSampled && !moreAllocs:
			// Too few iterations to trust the timing; don't gate on it.
			fmt.Printf("skip     %-36s %12.0f -> %12.0f ns/op (%.2fx, only %d iterations)\n",
				name, o.NsPerOp, n.NsPerOp, ratio, n.Iterations)
		case slower || moreAllocs || len(customBad) > 0:
			regressions++
			detail := ""
			if moreAllocs {
				detail = fmt.Sprintf("  allocs %d -> %d", *o.AllocsPerOp, *n.AllocsPerOp)
			}
			for _, c := range customBad {
				detail += "  " + c
			}
			fmt.Printf("REGRESS  %-36s %12.0f -> %12.0f ns/op (%.2fx)%s\n",
				name, o.NsPerOp, n.NsPerOp, ratio, detail)
		case o.NsPerOp > 0 && n.NsPerOp < o.NsPerOp*(1-nsRegressionFrac):
			fmt.Printf("IMPROVE  %-36s %12.0f -> %12.0f ns/op (%.2fx)\n",
				name, o.NsPerOp, n.NsPerOp, ratio)
		default:
			fmt.Printf("ok       %-36s %12.0f -> %12.0f ns/op (%.2fx)\n",
				name, o.NsPerOp, n.NsPerOp, ratio)
		}
	}
	if regressions > 0 {
		fmt.Printf("%d regression(s) (>%.0f%% and >%.0f ns/op, any allocs/op increase, or a >%.0f%% custom-metric move the wrong way)\n",
			regressions, nsRegressionFrac*100, nsRegressionFloorNs, nsRegressionFrac*100)
		if strict {
			return 1
		}
		return 0
	}
	fmt.Println("no regressions")
	return 0
}

// loadResultsFile reads one benchmark-result set from a file.
func loadResultsFile(path string) (map[string]Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseResults(b)
}

// parseResults decodes a result set from either the JSON map this tool
// emits or raw `go test -bench` text (detected by the leading byte).
// Metadata and archival keys — anything starting with "_", such as the
// `_baseline` snapshots kept in the committed BENCH_results.json — are
// skipped.
func parseResults(b []byte) (map[string]Result, error) {
	trimmed := bytes.TrimSpace(b)
	out := map[string]Result{}
	if len(trimmed) > 0 && trimmed[0] == '{' {
		var raw map[string]json.RawMessage
		if err := json.Unmarshal(trimmed, &raw); err != nil {
			return nil, fmt.Errorf("parsing results JSON: %w", err)
		}
		for k, v := range raw {
			if strings.HasPrefix(k, "_") {
				continue
			}
			var r Result
			if err := json.Unmarshal(v, &r); err != nil {
				return nil, fmt.Errorf("parsing result %q: %w", k, err)
			}
			out[k] = r
		}
		return out, nil
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if name, res, ok := parseLine(sc.Text()); ok {
			out[name] = res
		}
	}
	return out, sc.Err()
}
