package serve

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"mmreliable/internal/metro"
)

// testConfig is the small deterministic fixture the serve tests share:
// 4 sites, churn on, AFAP, status line every frame.
func testConfig(workers int) Config {
	mc := metro.DefaultConfig()
	mc.Clusters = 4
	mc.Seed = 7
	mc.Workers = workers
	return Config{Metro: mc, StatusEvery: 1}
}

// runToEnd runs the daemon to MaxFrames and returns the status stream.
func runToEnd(t *testing.T, cfg Config) string {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var buf bytes.Buffer
	s.SetStatusWriter(&buf)
	if err := s.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := s.ScriptErrs(); n != 0 {
		t.Fatalf("%d scripted commands failed to apply", n)
	}
	return buf.String()
}

// TestRunDeterministicAcrossWorkers pins the daemon's core contract: the
// per-frame status stream — counters, harvested aggregates, and the full
// state digest — is byte-identical at any worker count, with the demo
// script (all four command ops) running.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	base := testConfig(1)
	base.MaxFrames = 16
	base.Script = DemoScript()
	ref := runToEnd(t, base)
	if got := strings.Count(ref, "\n"); got != 16 {
		t.Fatalf("expected 16 status lines, got %d:\n%s", got, ref)
	}
	for _, workers := range []int{2, 4} {
		cfg := testConfig(workers)
		cfg.MaxFrames = 16
		cfg.Script = DemoScript()
		if out := runToEnd(t, cfg); out != ref {
			t.Errorf("workers=%d status stream diverged:\n--- workers=1\n%s--- workers=%d\n%s", workers, ref, workers, out)
		}
	}
}

// TestMetricsSiteLabelsByteIdentical is the telemetry layer's contract for
// the site-labeled dimensions: the full /metrics exposition — including
// every {site="i"} series, which reads the metro's per-site harvest
// aggregates — is byte-identical at any worker count, and the site series
// are actually present and sum-consistent with their aggregate line.
func TestMetricsSiteLabelsByteIdentical(t *testing.T) {
	render := func(workers int) string {
		cfg := testConfig(workers)
		cfg.StatusEvery = 0
		cfg.MaxFrames = 24 // enough frames for churn to harvest UEs
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if err := s.Run(context.Background()); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return s.front.metricsText() // the view Run published after its last frame
	}
	ref := render(1)
	if got := render(4); got != ref {
		t.Fatalf("metrics diverged between 1 and 4 workers:\n--- workers=1\n%s--- workers=4\n%s", ref, got)
	}
	for _, want := range []string{
		`mmserved_active_sessions{site="0"}`,
		`mmserved_active_sessions{site="3"}`,
		`mmserved_harvested_ues_total{site="0"}`,
		`mmserved_harvested_serving_reliability{site="0"}`,
		`mmserved_harvested_diversity_reliability{site="3"}`,
	} {
		if !strings.Contains(ref, want) {
			t.Errorf("metrics missing site series %q:\n%s", want, ref)
		}
	}
	// The site-labeled harvested counts must sum to the aggregate line.
	total, sum := 0, 0
	for _, line := range strings.Split(ref, "\n") {
		if v, ok := strings.CutPrefix(line, "mmserved_harvested_ues_total "); ok {
			fmt.Sscanf(v, "%d", &total)
		}
		if strings.HasPrefix(line, `mmserved_harvested_ues_total{site="`) {
			var site, n int
			fmt.Sscanf(line, `mmserved_harvested_ues_total{site="%d"} %d`, &site, &n)
			sum += n
		}
	}
	if total == 0 {
		t.Fatal("no UEs harvested in 24 frames — the site series were never exercised")
	}
	if sum != total {
		t.Fatalf("site-labeled harvested UEs sum to %d, aggregate says %d", sum, total)
	}
}

// TestScriptApplies checks the demo script actually lands: the attach and
// detach show up in the cluster counters and the journal stays empty
// (scripted commands are config, not journal).
func TestScriptApplies(t *testing.T) {
	cfg := testConfig(1)
	cfg.Metro.ChurnArrivalRate = 0 // only scripted lifecycle events
	cfg.MaxFrames = 16
	cfg.Script = DemoScript()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if n := s.ScriptErrs(); n != 0 {
		t.Fatalf("%d scripted commands failed", n)
	}
	cc := s.Metro().CountersTotal()
	// Initial population: 4 sites × 2 UEs. The script adds one attach and
	// one explicit detach (UE 0 leaves before frame 16; the scripted
	// attach's 2 s duration outlives the run).
	if want := 4*2 + 1; cc.UEsAttached != want {
		t.Errorf("UEsAttached = %d, want %d", cc.UEsAttached, want)
	}
	if cc.UEsFinished < 1 {
		t.Errorf("UEsFinished = %d, want >= 1 (scripted detach)", cc.UEsFinished)
	}
	if len(s.journal) != 0 {
		t.Errorf("scripted commands leaked into the journal (%d entries)", len(s.journal))
	}
}

// TestNewRejectsBadConfig covers the constructor's validation surface.
func TestNewRejectsBadConfig(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"negative timescale", func(c *Config) { c.TimeScale = -1 }},
		{"negative status every", func(c *Config) { c.StatusEvery = -1 }},
		{"negative max frames", func(c *Config) { c.MaxFrames = -1 }},
		{"unsorted script", func(c *Config) {
			c.Script = []Command{{Frame: 5, Op: OpDetach}, {Frame: 2, Op: OpDetach}}
		}},
		{"negative script frame", func(c *Config) {
			c.Script = []Command{{Frame: -1, Op: OpDetach}}
		}},
		{"unknown script op", func(c *Config) {
			c.Script = []Command{{Frame: 1, Op: "explode"}}
		}},
		{"tune without payload", func(c *Config) {
			c.Script = []Command{{Frame: 1, Op: OpTune}}
		}},
		{"zero clusters", func(c *Config) { c.Metro.Clusters = 0 }},
	}
	for _, tc := range cases {
		cfg := testConfig(1)
		tc.mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted bad config", tc.name)
		}
	}
}

// TestInjectAfterStop verifies the control plane fails cleanly with
// ErrStopped once the loop has exited.
func TestInjectAfterStop(t *testing.T) {
	cfg := testConfig(1)
	cfg.StatusEvery = 0
	cfg.MaxFrames = 2
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if _, err := s.Inject(Command{Op: OpDetach, Site: 0, UE: 0}); err != ErrStopped {
		t.Errorf("Inject after stop: err = %v, want ErrStopped", err)
	}
	if _, err := s.Status(); err != ErrStopped {
		t.Errorf("Status after stop: err = %v, want ErrStopped", err)
	}
}
