package main

import (
	"fmt"
	"time"

	"mmreliable/internal/cluster"
	"mmreliable/internal/metro"
	"mmreliable/internal/nr"
	"mmreliable/internal/station"
)

const (
	// cityWarmup frames (2 s simulated) bring the churned population of
	// city-mixed to its steady size; they are part of set-up.
	cityWarmup = 100
	// cityCheckpoint is the frame, counted from the end of warm-up, at
	// which city-mixed reads its digest, simulated counts and live heap.
	// The timed window always reaches it, so all three are fixed by the
	// seed alone; at the window's end they would depend on how many frames
	// the host managed.
	cityCheckpoint = 500
	// setupReps is how many times each workload sets up; setup_s is the
	// median.
	setupReps = 3
)

// cityConfig is the city-mixed metro: default churn and fading-free
// sites, a quarter of the UEs walking.
func cityConfig(seed int64, sites, workers int) metro.Config {
	cfg := metro.DefaultConfig()
	cfg.Seed = seed
	cfg.Clusters = sites
	cfg.CellsPerCluster = 2
	cfg.UEsPerCluster = 2
	cfg.MobileFraction = 0.25
	cfg.Workers = workers
	return cfg
}

// buildMetro is metro.New plus warm frames of AdvanceFrame, returning the
// metro and the seconds both took.
func buildMetro(tr *tracer, cfg metro.Config, warm int) (*metro.Metro, float64, error) {
	t0 := time.Now()
	id := tr.begin("metro.New")
	m, err := metro.New(nr.Mu3(), cfg)
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < warm; i++ {
		id := tr.begin("metro.AdvanceFrame")
		m.AdvanceFrame()
		tr.end(id)
	}
	return m, time.Since(t0).Seconds(), nil
}

// simCounts are the simulated counts read at a fixed frame: identical for
// a seed however fast the program runs, so a speed-up that does less work
// shows in them.
type simCounts struct {
	frame       int
	digest      uint64
	cluster     cluster.Counters
	station     station.Counters
	overheadPct float64
}

// readCounts reads the counts between frames. The station counters are
// read only for the fields station.Counters keeps live (frames, session
// slots, batched evaluations, attach outcomes): probe, grant, denial,
// preemption, realign, retrain and training-slot counts are summed only
// inside Results and read 0 from StationCountersTotal.
func readCounts(m *metro.Metro) simCounts {
	return simCounts{
		frame:       m.Frame(),
		digest:      m.DigestSum(),
		cluster:     m.CountersTotal(),
		station:     m.StationCountersTotal(),
		overheadPct: m.Results().OverheadPct,
	}
}

// checkResults checks the metro's aggregate outcome: reliabilities in
// [0,1], finite throughputs.
func checkResults(r *report, m *metro.Metro, when string) {
	res := m.Results()
	for _, s := range []struct {
		leg      string
		rel, thr float64
	}{
		{"serving", res.Serving.Reliability, res.Serving.MeanThroughput},
		{"diversity", res.Diversity.Reliability, res.Diversity.MeanThroughput},
	} {
		r.check(s.rel >= 0 && s.rel <= 1, "%s: %s reliability %v outside [0,1]", when, s.leg, s.rel)
		r.check(finite(s.thr) && s.thr >= 0, "%s: %s throughput %v not finite", when, s.leg, s.thr)
	}
	r.check(res.UEs > 0, "%s: no UE-sessions folded", when)
}

// cityRun is one pass of the city loop: set-up, then AdvanceFrame as fast
// as possible until both the time budget and minFrames are spent.
type cityRun struct {
	setups     []float64
	warmDigest uint64
	frameMs    []float64 // per-frame latency in the timed window
	frameUEs   []float64 // resident UEs each frame advanced
	ueFrames   int64     // resident UE-frames advanced in the window
	busyS      float64   // window wall time minus the checkpoint read
	delta      windowDelta
	slots      int64 // session slots stepped in the window
	at         simCounts
	heapMB     float64 // live heap at the checkpoint
	windowSpan int
}

// driveCity sets the city up setupReps times at Workers 2 and once at
// Workers 1 (all must reach the same warm-up digest), then runs the timed
// window on the last Workers-2 metro.
func driveCity(r *report, tr *tracer, seed int64, sites, minFrames int, budget time.Duration) (*cityRun, error) {
	const workers = 2
	one, _, err := buildMetro(tr, cityConfig(seed, sites, 1), cityWarmup)
	if err != nil {
		return nil, err
	}
	oneDigest := one.DigestSum()
	one.Close()

	var m *metro.Metro
	var setups []float64
	var warmDigest uint64
	for i := 0; i < setupReps; i++ {
		if m != nil {
			m.Close()
		}
		var s float64
		if m, s, err = buildMetro(tr, cityConfig(seed, sites, workers), cityWarmup); err != nil {
			return nil, err
		}
		setups = append(setups, s)
		d := m.DigestSum()
		if i == 0 {
			warmDigest = d
		}
		r.check(d == warmDigest, "set-up %d warm-up digest %016x != %016x", i, d, warmDigest)
	}
	defer m.Close()
	r.check(oneDigest == warmDigest, "warm-up digest at Workers 1 %016x != Workers 2 %016x", oneDigest, warmDigest)

	out := frameLoop(r, tr, m, minFrames, budget)
	out.setups, out.warmDigest = setups, warmDigest
	checkResults(r, m, fmt.Sprintf("frame %d", m.Frame()))
	r.check(out.ueFrames > 0, "no UE-frames advanced")
	return out, nil
}

// frameLoop advances m as fast as possible until budget has passed and at
// least minFrames frames have run, timing each AdvanceFrame, and reads the
// simulated counts at frame minFrames (outside the timing).
func frameLoop(r *report, tr *tracer, m *metro.Metro, minFrames int, budget time.Duration) *cityRun {
	out := &cityRun{frameMs: make([]float64, 0, 4096), frameUEs: make([]float64, 0, 4096)}
	start := m.Frame()
	slots0 := m.StationCountersTotal().SessionSlots
	var reading windowDelta // the checkpoint read's own time, allocations and GCs
	out.windowSpan = tr.begin("window")
	w := openWindow()
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) || m.Frame()-start < minFrames {
		res := m.ResidentUEs()
		id := tr.begin("metro.AdvanceFrame")
		t0 := time.Now()
		m.AdvanceFrame()
		d := time.Since(t0)
		tr.end(id)
		r.attempted++
		out.frameMs = append(out.frameMs, ms(d))
		out.frameUEs = append(out.frameUEs, float64(res))
		out.ueFrames += int64(res)
		if m.Frame()-start == minFrames {
			read := openWindow()
			out.at = readCounts(m)
			out.heapMB = liveHeapMB()
			reading = read.close()
		}
	}
	out.delta = w.close()
	tr.end(out.windowSpan)
	out.busyS = out.delta.wallS - reading.wallS
	out.delta.mallocs -= reading.mallocs
	out.delta.bytes -= reading.bytes
	out.delta.gcs -= reading.gcs
	out.delta.gcPauseMs -= reading.gcPauseMs
	out.slots = m.StationCountersTotal().SessionSlots - slots0
	return out
}

// perUEFrameMs returns each frame's time divided by the UEs it advanced.
// The seed sets the size of the churned population, so per-UE frame time
// varies less from seed to seed than the frame time itself.
func (c *cityRun) perUEFrameMs() []float64 {
	out := make([]float64, 0, len(c.frameMs))
	for i, t := range c.frameMs {
		if c.frameUEs[i] > 0 {
			out = append(out, t/c.frameUEs[i])
		}
	}
	return out
}

// blockFrames is the block length over which work_per_s is measured: the
// median block rate ignores the few blocks a burst of host contention
// slows.
const blockFrames = 10

// blockRate returns the median over consecutive blocks of blockFrames
// frames of resident UE-frames per second.
func blockRate(ues, frameMs []float64) float64 {
	var rates []float64
	for lo := 0; lo+blockFrames <= len(frameMs); lo += blockFrames {
		var u, t float64
		for i := lo; i < lo+blockFrames; i++ {
			u += ues[i]
			t += frameMs[i] / 1e3
		}
		rates = append(rates, u/t)
	}
	return median(rates)
}

// metroLayer reports the metro, cluster-counter and station metrics of a
// city run.
func (c *cityRun) metroLayer(r *report, tr *tracer) {
	frames := tr.durations(c.windowSpan, "metro.AdvanceFrame", time.Millisecond)
	n := float64(len(frames))
	r.addLayer("metro.frame_ms_p50", quantile(frames, 0.5), "ms", len(frames))
	r.addLayer("metro.frame_ms_p90", quantile(frames, 0.9), "ms", len(frames))
	r.addLayer("metro.allocs_per_frame", float64(c.delta.mallocs)/n, "count", len(frames))
	r.addLayer("metro.bytes_per_frame", float64(c.delta.bytes)/n, "B", len(frames))
	r.addLayer("metro.cpu_busy_frac", c.delta.cpuBusy(), "ratio", 1)
	r.addLayer("metro.ns_per_session_slot", c.busyS*1e9/float64(c.slots), "ns", int(c.slots))
	r.addLayer("metro.ue_frames", float64(c.ueFrames), "count", 1)
	addCountLayers(r, c.at)
}

// addCountLayers reports the simulated cluster and station counts.
func addCountLayers(r *report, at simCounts) {
	cc, sc := at.cluster, at.station
	r.addLayer("cluster.ues_attached", float64(cc.UEsAttached), "count", 1)
	r.addLayer("cluster.ues_finished", float64(cc.UEsFinished), "count", 1)
	r.addLayer("cluster.admission_deferral_ratio",
		ratio(cc.AdmissionDeferrals, cc.UEsAttached+cc.AdmissionDeferrals), "ratio", cc.UEsAttached+cc.AdmissionDeferrals)
	r.addLayer("cluster.handovers", float64(cc.Handovers), "count", 1)
	r.addLayer("cluster.monitor_probes", float64(cc.MonitorProbes), "count", 1)
	r.addLayer("station.session_slots", float64(sc.SessionSlots), "count", 1)
	r.addLayer("station.batched_entry_evals", float64(sc.BatchedEntryEvals), "count", 1)
	r.addLayer("station.attach_reject_ratio",
		ratio(sc.AttachesRejected, sc.AttachesAdmitted+sc.AttachesRejected), "ratio", sc.AttachesAdmitted+sc.AttachesRejected)
	r.addLayer("station.training_overhead_pct", at.overheadPct, "%", 1)
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// runCity is the city-mixed workload.
func runCity(o options, tr *tracer) (*report, error) {
	r := &report{}
	c, err := driveCity(r, tr, o.seed, 32, cityCheckpoint, o.seconds)
	if err != nil {
		return nil, err
	}
	r.fingerprint = fmt.Sprintf("warmup=%016x frame%d=%016x", c.warmDigest, c.at.frame, c.at.digest)
	r.addE2E("work_per_s", blockRate(c.frameUEs, c.frameMs), "1/s", len(c.frameMs))
	r.addE2E("latency_ms_p50", median(c.perUEFrameMs()), "ms", len(c.frameMs))
	r.addE2E("setup_s", median(c.setups), "s", len(c.setups))
	r.addE2E("heap_mb", c.heapMB, "MiB", 1)
	r.addNote("ue_frames_per_s", r.e2e[0].value, "1/s", len(c.frameMs))
	r.addNote("frame_ms_p50", quantile(c.frameMs, 0.5), "ms", len(c.frameMs))
	if tr.on {
		c.metroLayer(r, tr)
		r.addRuntime(c.delta)
		r.addLayer("trace.work_per_s", blockRate(c.frameUEs, c.frameMs), "1/s", len(c.frameMs))
		if err := layerProbes(r, tr, o.seed, cityConfig(o.seed, 32, 2)); err != nil {
			return nil, err
		}
		if err := serveProbe(r, tr, o.seed); err != nil {
			return nil, err
		}
		experimentsProbe(r, tr, o.seed)
	}
	return r, nil
}

// metroProbe drives a small city-mixed metro for the workloads that do
// not run one, so every traced run reports the metro, cluster and station
// metrics.
func metroProbe(r *report, tr *tracer, seed int64) error {
	id := tr.begin("probe.metro")
	defer tr.end(id)
	c, err := driveCity(r, tr, seed, 8, 200, 0)
	if err != nil {
		return err
	}
	c.metroLayer(r, tr)
	return nil
}
