package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mmreliable/internal/events"
	"mmreliable/internal/metro"
	"mmreliable/internal/seeds"
	"mmreliable/internal/serve"
)

const (
	// daemonWarmup frames admit and train every resident UE of the
	// quiescent city before the control plane opens.
	daemonWarmup = 50
	// readEveryFrames sets the read rate: /metrics and /status are each
	// requested once per readEveryFrames frame periods on average, 10/s
	// at the 20 ms frame. That gives 200 samples per route in a 20 s
	// window, and with the writes the mix uses under a quarter of what
	// the two connections can carry at real-time pace (one request per
	// connection per frame boundary, 100/s), so no queue builds and
	// latency tracks frame time.
	readEveryFrames = 5
	// lateLimitFrames is the largest p99 lateness of the load generator
	// (how long after its due time a request was handed to a connection),
	// in frame periods, for which a daemon-scraped run is valid. A request
	// handed over later has missed two frame boundaries it could have
	// caught: the host, not the program, stalled the client.
	lateLimitFrames = 2
	// ctlTimeout bounds one request; a timeout counts as a failed request.
	ctlTimeout = 10 * time.Second
	// labelLoad seeds the request mix.
	labelLoad = 7002
)

// Request kinds of the control mix.
const (
	reqMetrics = iota
	reqStatus
	reqBlockage
	reqAttach
)

var reqNames = [...]string{"serve.GET /metrics", "serve.GET /status", "serve.POST /event/blockage", "serve.POST /ue/attach"}

// daemonConfig is the daemon-scraped city: churn off, every UE static,
// one metro worker.
func daemonConfig(seed int64, sites int) metro.Config {
	cfg := metro.DefaultConfig()
	cfg.Seed = seed
	cfg.Clusters = sites
	cfg.CellsPerCluster = 2
	cfg.UEsPerCluster = 2
	cfg.ChurnArrivalRate = 0
	cfg.MobileFraction = 0
	cfg.Workers = 1
	return cfg
}

// buildServer is serve.New plus warm frames advanced on the owned metro
// before Run starts, returning the seconds both took.
func buildServer(tr *tracer, cfg metro.Config) (*serve.Server, float64, error) {
	t0 := time.Now()
	id := tr.begin("serve.New")
	s, err := serve.New(serve.Config{Metro: cfg})
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < daemonWarmup; i++ {
		id := tr.begin("metro.AdvanceFrame")
		s.Metro().AdvanceFrame()
		tr.end(id)
	}
	return s, time.Since(t0).Seconds(), nil
}

// request is one scheduled control request and, once done, its outcome.
type request struct {
	kind int
	path string
	body []byte
	due  time.Time

	sent, done time.Time
	ok         bool
	bytes      int
	status     serve.Status // decoded /status reply
}

// schedule builds the control mix for a window of budget starting at
// start. Reads poll /metrics and /status every readEveryFrames frame
// periods. Writes carry one site's default event stream, taken from the
// program's own models: attaches at metro.DefaultConfig's churn arrival
// rate with its session-length law (exponential, floored), and blockages
// at events.DefaultGenParams' rate per resident UE with its depths and
// durations (the paper's §6.2 human blockers). Each stream sends rate ×
// window requests at times drawn uniformly over the window: a Poisson
// process held to its expected count, so every run of a window length
// sends the same number of each request, and requests land at every phase
// of the frame instead of locking to one. The seed draws the times, the
// target sites and UEs, and the depths and durations. It also returns the
// longest write, in seconds of simulated time.
func schedule(seed int64, cfg metro.Config, framePeriod float64, budget time.Duration, start time.Time) ([]request, float64) {
	rng := rand.New(rand.NewSource(seeds.Mix(seed, labelLoad)))
	churn, blk := metro.DefaultConfig(), events.DefaultGenParams(1)
	sites, ues := cfg.Clusters, cfg.UEsPerCluster
	var reqs []request
	var longest float64
	stream := func(kind int, perS float64, body func() ([]byte, float64)) {
		for range int(math.Round(perS * budget.Seconds())) {
			t := budget.Seconds() * rng.Float64()
			q := request{kind: kind, due: start.Add(time.Duration(t * float64(time.Second)))}
			if body != nil {
				var d float64
				q.body, d = body()
				longest = max(longest, d)
			}
			reqs = append(reqs, q)
		}
	}
	readPerS := 1 / (readEveryFrames * framePeriod)
	stream(reqMetrics, readPerS, nil)
	stream(reqStatus, readPerS, nil)
	stream(reqAttach, churn.ChurnArrivalRate, func() ([]byte, float64) {
		d := max(churn.MinSessionS, churn.MeanSessionS*rng.ExpFloat64())
		return fmt.Appendf(nil, `{"site":%d,"duration_s":%g}`, rng.Intn(sites), d), d
	})
	stream(reqBlockage, blk.Rate*float64(ues), func() ([]byte, float64) {
		depth := blk.MinDepthDB + rng.Float64()*(blk.MaxDepthDB-blk.MinDepthDB)
		d := blk.MinDuration + rng.Float64()*(blk.MaxDuration-blk.MinDuration)
		return fmt.Appendf(nil, `{"site":%d,"ue":%d,"depth_db":%g,"duration_s":%g}`,
			rng.Intn(sites), rng.Intn(ues), depth, d), d
	})
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].due.Before(reqs[j].due) })
	for i := range reqs {
		reqs[i].path = [...]string{"/metrics", "/status", "/event/blockage", "/ue/attach"}[reqs[i].kind]
	}
	return reqs, longest
}

// client is one of the generator's two connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   ctlTimeout,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

// do sends q and checks its reply: 2xx, and a body that parses (metrics
// with no NaN or Inf sample).
func (c *client) do(q *request) {
	var resp *http.Response
	var err error
	q.sent = time.Now()
	if q.body == nil {
		resp, err = c.hc.Get(c.base + q.path)
	} else {
		resp, err = c.hc.Post(c.base+q.path, "application/json", bytes.NewReader(q.body))
	}
	if err != nil {
		q.done = time.Now()
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	q.done = time.Now()
	q.bytes = len(body)
	if err != nil || resp.StatusCode/100 != 2 {
		return
	}
	switch q.kind {
	case reqMetrics:
		q.ok = metricsWellFormed(body)
	case reqStatus:
		q.ok = json.Unmarshal(body, &q.status) == nil && q.status.Frame > 0
	default:
		var res serve.InjectResult
		q.ok = json.Unmarshal(body, &res) == nil && res.Frame > 0
	}
}

// metricsWellFormed reports whether every sample line of a Prometheus
// text exposition carries a finite value.
func metricsWellFormed(body []byte) bool {
	n := 0
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return false
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil || !finite(v) {
			return false
		}
		n++
	}
	return n > 0
}

// point is one (time, frame, resident UEs) reading of the running daemon.
type point struct {
	t        time.Time
	frame    int
	resident int
}

// ueFramesPerS returns the median, over blocks of at least blockFrames
// frames between consecutive readings, of resident UE-frames (trapezoid
// over the readings) per second. A window too short for one whole block
// is one block.
func ueFramesPerS(pts []point) float64 {
	sort.Slice(pts, func(i, j int) bool { return pts[i].t.Before(pts[j].t) })
	var rates []float64
	var uf float64
	lo := pts[0]
	for i := 1; i < len(pts); i++ {
		uf += float64(pts[i].frame-pts[i-1].frame) * float64(pts[i].resident+pts[i-1].resident) / 2
		if pts[i].frame-lo.frame >= blockFrames || (i == len(pts)-1 && len(rates) == 0) {
			rates = append(rates, uf/pts[i].t.Sub(lo.t).Seconds())
			uf, lo = 0, pts[i]
		}
	}
	return median(rates)
}

// daemonRun is one pass of the daemon workload.
type daemonRun struct {
	setups     []float64
	warmDigest uint64
	warm       simCounts // counts at the end of warm-up: fixed by the seed
	reqs       []request // every request of the window
	late       []float64 // generator lateness per request, ms
	perS       float64   // resident UE-frames per second under load
	idlePerS   float64   // frames per second with no control traffic
	journal    int
	delta      windowDelta
	heapMB     float64
	srv        *serve.Server // stopped; its metro may be advanced directly
}

// status reads /status outside the request mix (window edges, final
// journal check).
func (c *client) status() (point, serve.Status, error) {
	q := request{kind: reqStatus, path: "/status"}
	c.do(&q)
	if !q.ok {
		return point{}, serve.Status{}, fmt.Errorf("GET /status failed")
	}
	return point{q.done, q.status.Frame, q.status.ResidentUEs}, q.status, nil
}

// driveDaemon sets the daemon up setupReps times (plus once at Workers 2,
// whose warm-up must reach the same digest), serves it on a loopback
// listener, and runs the open-loop control mix for budget. With idle set
// it first lets the loop run one second with no traffic. Requests cross
// the loopback TCP stack, so their latency includes it.
func driveDaemon(r *report, tr *tracer, seed int64, sites int, budget time.Duration, idle bool) (*daemonRun, error) {
	out := &daemonRun{}
	cfg := daemonConfig(seed, sites)
	two := cfg
	two.Workers = 2
	s2, _, err := buildServer(tr, two)
	if err != nil {
		return nil, err
	}
	twoDigest := s2.Metro().DigestSum()
	s2.Close()

	var s *serve.Server
	for i := 0; i < setupReps; i++ {
		if s != nil {
			s.Close()
		}
		var sec float64
		if s, sec, err = buildServer(tr, cfg); err != nil {
			return nil, err
		}
		out.setups = append(out.setups, sec)
		d := s.Metro().DigestSum()
		if i == 0 {
			out.warmDigest = d
		}
		r.check(d == out.warmDigest, "set-up %d warm-up digest %016x != %016x", i, d, out.warmDigest)
	}
	r.check(twoDigest == out.warmDigest, "warm-up digest at Workers 2 %016x != Workers 1 %016x", twoDigest, out.warmDigest)
	out.warm = readCounts(s.Metro())
	framePeriod := s.Metro().FramePeriod()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, err
	}
	base := "http://" + ln.Addr().String()
	clients := []*client{newClient(base), newClient(base)}
	hs := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: ctlTimeout}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan error, 1)
	runStart := time.Now()
	go func() { ran <- s.Run(ctx) }()
	// stop ends the serving loop and the HTTP server and waits for both;
	// it runs once, on success before the settle frames, else on return.
	var stopOnce sync.Once
	var stopErr error
	stop := func() error {
		stopOnce.Do(func() {
			cancel()
			stopErr = <-ran
			for _, c := range clients {
				c.hc.CloseIdleConnections()
			}
			hs.Close()
			if err := <-served; !errors.Is(err, http.ErrServerClosed) {
				stopErr = err
			}
		})
		return stopErr
	}
	defer func() {
		if out.srv == nil {
			stop()
			s.Close()
		}
	}()

	if idle {
		time.Sleep(time.Second)
	}
	p0, _, err := clients[0].status()
	if err != nil {
		return nil, err
	}
	out.idlePerS = float64(p0.frame-daemonWarmup) / p0.t.Sub(runStart).Seconds()

	w := openWindow()
	reqs, late, longest := loadWindow(clients, seed, cfg, framePeriod, budget)
	pts := []point{p0}
	writesOK := 0
	for i := range reqs {
		q := &reqs[i]
		r.check(q.ok, "%s (request %d) failed", reqNames[q.kind], i)
		if q.ok && q.kind == reqStatus {
			pts = append(pts, point{q.done, q.status.Frame, q.status.ResidentUEs})
		}
		if q.ok && (q.kind == reqBlockage || q.kind == reqAttach) {
			writesOK++
		}
	}
	p1, st, err := clients[0].status()
	if err != nil {
		return nil, err
	}
	out.delta = w.close()
	out.reqs, out.late, out.journal = reqs, late, st.JournalLen
	out.perS = ueFramesPerS(append(pts, p1))
	if limit := lateLimitFrames * framePeriod * 1e3; quantile(late, 0.99) > limit {
		return nil, fmt.Errorf("load generator late, run invalid: p99 %.1f ms > %.0f ms", quantile(late, 0.99), limit)
	}
	r.check(out.journal == writesOK, "journal_len %d != %d successful writes", out.journal, writesOK)
	if err := stop(); err != nil {
		return nil, err
	}
	// Let every write expire so the live heap is the quiescent city's,
	// not a count of the attaches still running when the window closed.
	for i := 0; i < int(math.Ceil(longest/framePeriod))+1; i++ {
		id := tr.begin("metro.AdvanceFrame")
		s.Metro().AdvanceFrame()
		tr.end(id)
	}
	checkResults(r, s.Metro(), "daemon")
	out.heapMB = liveHeapMB()
	runtime.KeepAlive(s)
	for i := range out.reqs {
		q := &out.reqs[i]
		tr.addRequest(reqNames[q.kind], i, q.sent, q.done)
	}
	out.srv = s
	return out, nil
}

// loadWindow sends the seeded control mix for budget over the two clients
// (open loop: the schedule never waits for replies) and returns every
// request, the generator's lateness per request in ms, and the longest
// write in simulated seconds.
func loadWindow(clients []*client, seed int64, cfg metro.Config, framePeriod float64, budget time.Duration) ([]request, []float64, float64) {
	reqs, longest := schedule(seed, cfg, framePeriod, budget, time.Now().Add(10*time.Millisecond))
	late := make([]float64, len(reqs))
	ready := make(chan int, len(reqs)) // sized to the number of sends
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := range ready {
				c.do(&reqs[i])
			}
		}(c)
	}
	for i := range reqs {
		time.Sleep(time.Until(reqs[i].due))
		late[i] = ms(time.Since(reqs[i].due))
		ready <- i
	}
	close(ready)
	wg.Wait()
	return reqs, late, longest
}

// latencies returns the due-to-reply latency (ms) of every request, and
// the send-to-reply latency of those of the given kinds.
func latencies(reqs []request, kinds ...int) (fromDue, fromSend []float64) {
	for i := range reqs {
		q := &reqs[i]
		fromDue = append(fromDue, ms(q.done.Sub(q.due)))
		for _, k := range kinds {
			if q.kind == k {
				fromSend = append(fromSend, ms(q.done.Sub(q.sent)))
			}
		}
	}
	return fromDue, fromSend
}

// serveLayer reports the serve and loadgen metrics of a daemon run.
func (d *daemonRun) serveLayer(r *report) {
	route := func(name string, kinds ...int) {
		_, xs := latencies(d.reqs, kinds...)
		r.addLayer(name, median(xs), "ms", len(xs))
	}
	route("serve.metrics_ms_p50", reqMetrics)
	route("serve.status_ms_p50", reqStatus)
	route("serve.inject_ms_p50", reqBlockage, reqAttach)
	ctl, _ := latencies(d.reqs)
	r.addLayer("serve.ctl_ms_p99", quantile(ctl, 0.99), "ms", len(ctl))
	var bytesSum, n int
	for i := range d.reqs {
		if d.reqs[i].kind == reqMetrics {
			bytesSum += d.reqs[i].bytes
			n++
		}
	}
	r.addLayer("serve.metrics_bytes", float64(bytesSum)/float64(n), "B", n)
	r.addLayer("serve.journal_len", float64(d.journal), "count", 1)
	r.addLayer("serve.idle_frames_per_s", d.idlePerS, "1/s", 1)
	r.addLayer("loadgen.late_ms_p99", quantile(d.late, 0.99), "ms", len(d.late))
}

// runDaemon is the daemon-scraped workload.
func runDaemon(o options, tr *tracer) (*report, error) {
	r := &report{}
	d, err := driveDaemon(r, tr, o.seed, 64, o.seconds, tr.on)
	if err != nil {
		return nil, err
	}
	defer d.srv.Close()
	r.fingerprint = fmt.Sprintf("warmup=%016x", d.warmDigest)
	ctl, _ := latencies(d.reqs)
	r.addE2E("work_per_s", d.perS, "1/s", len(d.reqs))
	r.addE2E("latency_ms_p50", quantile(ctl, 0.5), "ms", len(ctl))
	r.addE2E("setup_s", median(d.setups), "s", len(d.setups))
	r.addE2E("heap_mb", d.heapMB, "MiB", 1)
	failed := 0
	for i := range d.reqs {
		if !d.reqs[i].ok {
			failed++
		}
	}
	r.addNote("ue_frames_per_s", d.perS, "1/s", len(d.reqs))
	r.addNote("ctl_ms_p50", r.e2e[1].value, "ms", len(ctl))
	r.addNote("ctl_ms_p99", quantile(ctl, 0.99), "ms", len(ctl))
	r.addNote("ctl_error_frac", ratio(failed, len(d.reqs)), "ratio", len(d.reqs))
	r.addNote("late_ms_p99", quantile(d.late, 0.99), "ms", len(d.late))
	if tr.on {
		d.serveLayer(r)
		r.addRuntime(d.delta)
		r.addLayer("trace.work_per_s", d.perS, "1/s", len(d.reqs))
		// The serving loop is stopped and the writes have expired: advance
		// the metro directly to time the quiescent frame the requests
		// waited on.
		c := frameLoop(r, tr, d.srv.Metro(), 100, 0)
		c.at = d.warm
		c.metroLayer(r, tr)
		if err := layerProbes(r, tr, o.seed, daemonConfig(o.seed, 64)); err != nil {
			return nil, err
		}
		experimentsProbe(r, tr, o.seed)
	}
	return r, nil
}

// serveProbe drives a small daemon-scraped daemon for the workloads that
// do not run one, so every traced run reports the serve metrics.
func serveProbe(r *report, tr *tracer, seed int64) error {
	id := tr.begin("probe.serve")
	defer tr.end(id)
	d, err := driveDaemon(r, tr, seed, 8, 2*time.Second, true)
	if err != nil {
		return err
	}
	d.srv.Close()
	d.serveLayer(r)
	return nil
}
