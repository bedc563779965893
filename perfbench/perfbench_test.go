package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// benchmarkSpec reads the metric names BENCHMARK.json declares.
func benchmarkSpec(t *testing.T) (e2e, layer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, m.Name)
	}
	return e2e, layer
}

func names(ss []sample) []string {
	var out []string
	for _, s := range ss {
		out = append(out, s.name)
	}
	return out
}

func sameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("%s: got %d metrics %v, BENCHMARK.json declares %d %v", what, len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: got %v, BENCHMARK.json declares %v", what, got, want)
		}
	}
}

// nonZeroCounts names, per workload, the counts that workload drives: each
// must read non-zero there, so a metric wired to a dead counter fails
// here instead of publishing a silent 0.
var nonZeroCounts = map[string][]string{
	"city-mixed": {
		"metro.ue_frames", "cluster.ues_attached", "cluster.ues_finished", "cluster.handovers",
		"cluster.monitor_probes", "station.session_slots", "station.batched_entry_evals",
	},
	"daemon-scraped": {
		"serve.journal_len", "cluster.ues_attached", "cluster.monitor_probes",
		"station.session_slots", "station.batched_entry_evals", "metro.ue_frames",
	},
	"figures": {"runtime.gc_cycles"},
}

// TestTracedRuns runs every workload traced with a short window and
// checks that it passes its own correctness checks, reports exactly the
// metrics BENCHMARK.json declares, and drives its counts off zero.
func TestTracedRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload (about a minute)")
	}
	e2e, layer := benchmarkSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := w.run(options{seed: 1, seconds: time.Second}, newTracer(true))
			if err != nil {
				t.Fatal(err)
			}
			if len(r.problems) > 0 {
				t.Fatalf("checks failed: %v", r.problems)
			}
			sameSet(t, "end-to-end", names(r.e2e), e2e)
			sameSet(t, "per-layer", names(r.layer), layer)
			for _, s := range append(r.e2e, r.layer...) {
				if !finite(s.value) {
					t.Errorf("%s = %v", s.name, s.value)
				}
			}
			for _, name := range nonZeroCounts[w.name] {
				if v := find(r.layer, name); v == 0 {
					t.Errorf("%s reads 0 on %s, the workload that drives it", name, w.name)
				}
			}
		})
	}
}

// TestCityFingerprintRepeats: two runs of one seed reach the same digest
// after warm-up and at the checkpoint frame.
func TestCityFingerprintRepeats(t *testing.T) {
	var digests [2][2]uint64
	for i := range digests {
		r := &report{}
		c, err := driveCity(r, newTracer(false), 7, 4, 60, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.problems) > 0 {
			t.Fatalf("checks failed: %v", r.problems)
		}
		digests[i] = [2]uint64{c.warmDigest, c.at.digest}
	}
	if digests[0] != digests[1] {
		t.Fatalf("fingerprints differ across runs of one seed: %x vs %x", digests[0], digests[1])
	}
}

// TestScheduleMix: the control mix sends each route at the rate its
// source sets, the same requests for the same seed, and due times in order.
func TestScheduleMix(t *testing.T) {
	cfg := daemonConfig(1, 64)
	start := time.Unix(0, 0)
	reqs, longest := schedule(1, cfg, 0.02, 15*time.Second, start)
	count := map[int]int{}
	for i, q := range reqs {
		count[q.kind]++
		if i > 0 && q.due.Before(reqs[i-1].due) {
			t.Fatalf("request %d due before request %d", i, i-1)
		}
	}
	// 10/s reads, 1.5/s attaches, 2 resident UEs x 1 blockage/s.
	for kind, want := range map[int]int{reqMetrics: 150, reqStatus: 150, reqAttach: 23, reqBlockage: 30} {
		if got := count[kind]; got != want {
			t.Errorf("%s: %d requests in 15 s, want %d", reqNames[kind], got, want)
		}
	}
	if longest < 0.3 {
		t.Errorf("longest write %g s, below the 0.3 s session floor", longest)
	}
	again, _ := schedule(1, cfg, 0.02, 15*time.Second, start)
	for i := range reqs {
		if reqs[i].kind != again[i].kind || !reqs[i].due.Equal(again[i].due) || string(reqs[i].body) != string(again[i].body) {
			t.Fatalf("request %d differs between two schedules of one seed", i)
		}
	}
}

func TestMetricsWellFormed(t *testing.T) {
	for _, c := range []struct {
		body string
		ok   bool
	}{
		{"# HELP a x\n# TYPE a gauge\na 1\nb{site=\"0\"} 2.5e-3\n", true},
		{"a NaN\n", false},
		{"a +Inf\n", false},
		{"a\n", false},
		{"# only comments\n", false},
	} {
		if got := metricsWellFormed([]byte(c.body)); got != c.ok {
			t.Errorf("metricsWellFormed(%q) = %v, want %v", c.body, got, c.ok)
		}
	}
}

// BenchmarkSpan measures one recorded span (begin plus end): the tracing
// overhead a traced run adds per call it wraps.
func BenchmarkSpan(b *testing.B) {
	tr := newTracer(true)
	tr.spans = make([]span, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.end(tr.begin("metro.AdvanceFrame"))
	}
}
