// Command mmserved is the long-running service daemon (internal/serve): it
// owns a city-scale metro simulation, advances it continuously — paced to
// wall-clock or as fast as possible — and exposes an HTTP/JSON control
// plane for live telemetry, event injection, knob hot-reload, and
// deterministic snapshot/restore.
//
// Usage:
//
//	mmserved -clusters 8 -frames 200 -status-every 10
//	mmserved -listen :8080 -timescale 1
//	mmserved -frames 100 -snapshot state.json
//	mmserved -restore state.json -frames 200
//
// The per-frame status lines on stdout are byte-identical at any -workers
// value, and a run that is stopped, snapshotted, and restored in a fresh
// process emits exactly the lines the uninterrupted run would have — CI
// diffs both. Wall-clock throughput goes to stderr so it never perturbs
// the diff.
//
// Control plane. Reads are served from the view the loop publishes after
// every frame and before replying to every write, so they never wait for a
// frame; writes and snapshots apply at the next frame boundary. Request
// bodies are capped at 64 KiB (413 beyond), and a client gets 5 s to send
// its request headers.
//
//	GET  /status          last boundary's daemon state (JSON)
//	GET  /metrics         Prometheus text exposition, O(sites)
//	POST /ue/attach       {"site":0,"x":3.5,"y":1.25,"duration_s":5}
//	POST /ue/detach       {"site":0,"ue":2}
//	POST /event/blockage  {"site":0,"ue":0,"depth_db":25,"duration_s":0.05}
//	POST /config          cluster tuning knobs, validated atomically
//	POST /snapshot        versioned snapshot document (response body)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mmreliable/internal/core"
	"mmreliable/internal/metro"
	"mmreliable/internal/serve"
)

// readHeaderTimeout bounds how long a client may take to send its request
// headers, so idle or trickling connections cannot pile up on the daemon.
const readHeaderTimeout = 5 * time.Second

// newHTTPServer builds the control plane's HTTP server.
func newHTTPServer(addr string, h http.Handler, headerTimeout time.Duration) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: headerTimeout}
}

func main() {
	def := metro.DefaultConfig()
	clusters := flag.Int("clusters", def.Clusters, "number of independent cluster sites in the city")
	cells := flag.Int("cells", def.CellsPerCluster, "gNB cells per site")
	ues := flag.Int("ues", def.UEsPerCluster, "initial UEs per site")
	seed := flag.Int64("seed", 1, "base seed; per-site streams are derived via seeds.Mix")
	workers := flag.Int("workers", 0, "shard-pool workers (0 = GOMAXPROCS); output is identical for any value")
	shards := flag.Int("shards", 0, "shard count (0 = default 64); part of the determinism contract")
	churn := flag.Float64("churn", def.ChurnArrivalRate, "session arrivals per second per site (0 disables churn)")
	session := flag.Float64("session", def.MeanSessionS, "mean session length in seconds (exponential dwell)")
	mobile := flag.Float64("mobile", def.MobileFraction, "fraction of UEs that pace the hall at walking speed")
	speed := flag.Float64("speed", def.SpeedMPS, "mobile-UE walking speed in m/s (0 = 1.4)")
	frames := flag.Int("frames", 0, "stop after this many frames (0 = run until signaled)")
	statusEvery := flag.Int("status-every", 1, "emit a deterministic status line every N frames (0 = off)")
	timescale := flag.Float64("timescale", 0, "simulated seconds per wall second (1 = real time, 0 = as fast as possible)")
	listen := flag.String("listen", "", "serve the HTTP control plane on this address (empty = no HTTP)")
	snapshotPath := flag.String("snapshot", "", "write a snapshot document to this file at exit")
	restorePath := flag.String("restore", "", "restore from this snapshot instead of a fresh metro (metro sizing flags are ignored)")
	demoScript := flag.String("demo-script", "", "run the built-in deterministic event script (any non-empty value enables; used by the CI kill-and-restore diff)")
	showVersion := flag.Bool("version", false, "print version/build info and exit")
	flag.Parse()

	if *showVersion {
		fmt.Println(core.Version("mmserved"))
		return
	}
	if err := core.CheckFlags("mmserved",
		core.IntAtLeast("clusters", *clusters, 1),
		core.IntAtLeast("cells", *cells, 1),
		core.IntAtLeast("ues", *ues, 0),
		core.IntAtLeast("workers", *workers, 0),
		core.IntAtLeast("shards", *shards, 0),
		core.FloatAtLeast("churn", *churn, 0),
		core.FloatPositive("session", *session),
		core.FloatInRange("mobile", *mobile, 0, 1),
		core.FloatAtLeast("speed", *speed, 0),
		core.IntAtLeast("frames", *frames, 0),
		core.IntAtLeast("status-every", *statusEvery, 0),
		core.FloatAtLeast("timescale", *timescale, 0),
	); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var s *serve.Server
	if *restorePath != "" {
		blob, err := os.ReadFile(*restorePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mmserved:", err)
			os.Exit(1)
		}
		s, err = serve.Restore(blob, serve.Runtime{
			TimeScale:   *timescale,
			StatusEvery: *statusEvery,
			MaxFrames:   *frames,
			Workers:     *workers,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "mmserved:", err)
			os.Exit(1)
		}
	} else {
		mc := def
		mc.Seed = *seed
		mc.Clusters = *clusters
		mc.CellsPerCluster = *cells
		mc.UEsPerCluster = *ues
		mc.Workers = *workers
		mc.Shards = *shards
		mc.ChurnArrivalRate = *churn
		mc.MeanSessionS = *session
		mc.MobileFraction = *mobile
		mc.SpeedMPS = *speed
		cfg := serve.Config{
			Metro:       mc,
			TimeScale:   *timescale,
			StatusEvery: *statusEvery,
			MaxFrames:   *frames,
		}
		if *demoScript != "" {
			cfg.Script = serve.DemoScript()
		}
		var err error
		s, err = serve.New(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mmserved:", err)
			os.Exit(1)
		}
	}
	s.SetStatusWriter(os.Stdout)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var httpSrv *http.Server
	if *listen != "" {
		httpSrv = newHTTPServer(*listen, s.Handler(), readHeaderTimeout)
		go func() {
			if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "mmserved:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "mmserved: control plane on %s\n", *listen)
	}

	start := time.Now()
	startFrame := s.Frame()
	if err := s.Run(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "mmserved:", err)
		os.Exit(1)
	}
	elapsed := time.Since(start)

	if httpSrv != nil {
		shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		httpSrv.Shutdown(shutCtx)
		cancel()
	}
	if *snapshotPath != "" {
		blob, err := s.SnapshotJSONDirect()
		if err != nil {
			fmt.Fprintln(os.Stderr, "mmserved:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*snapshotPath, blob, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "mmserved:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "mmserved: snapshot at frame %d written to %s\n", s.Frame(), *snapshotPath)
	}
	if n := s.ScriptErrs(); n > 0 {
		fmt.Fprintf(os.Stderr, "mmserved: %d scripted commands failed to apply\n", n)
	}
	fmt.Fprintf(os.Stderr, "mmserved: %d frames in %.2fs wall (%.0f frames/sec)\n",
		s.Frame()-startFrame, elapsed.Seconds(),
		float64(s.Frame()-startFrame)/elapsed.Seconds())
}
