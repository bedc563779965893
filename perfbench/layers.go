package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"mmreliable/internal/antenna"
	"mmreliable/internal/channel"
	"mmreliable/internal/cluster"
	"mmreliable/internal/cmx"
	"mmreliable/internal/core/manager"
	"mmreliable/internal/core/superres"
	"mmreliable/internal/env"
	"mmreliable/internal/hybrid"
	"mmreliable/internal/metro"
	"mmreliable/internal/motion"
	"mmreliable/internal/nr"
	"mmreliable/internal/scratch"
	"mmreliable/internal/seeds"
	"mmreliable/internal/sim"
)

// Seed-stream label for the layer probes' choice of links.
const labelProbe = 7001

// probeCalls is how many calls each layer probe times.
const probeCalls = 400

// pacer walks a UE back and forth between a and b at speed m/s, like the
// metro's walkers.
type pacer struct {
	a, b  env.Vec2
	speed float64
}

// At implements motion.Trace.
func (p pacer) At(t float64) env.Pose {
	span := p.b.Sub(p.a).Norm()
	d := math.Mod(p.speed*t, 2*span)
	if d > span {
		d = 2*span - d
	}
	f := d / span
	return env.Pose{Pos: env.Vec2{X: p.a.X + f*(p.b.X-p.a.X), Y: p.a.Y + f*(p.b.Y-p.a.Y)}}
}

// link is one (cell, UE) pair of the workload's scene with its traced
// paths, channel model and a beam steered at the strongest path.
type link struct {
	gnb, ue env.Pose
	paths   []env.Path
	model   *channel.Model
	beam    cmx.Vector
}

// sceneLinks builds n links of the workload's scene: the metro's
// multi-cell hall (indexed, 80 m range), UEs drawn from the hall lattice
// by the seed. The first half of the links share cell 0 so the hybrid
// probe can group them.
func sceneLinks(seed int64, cfg metro.Config, n int) (*env.Environment, []link, error) {
	scene, poses := env.MultiCellHall(env.Band28GHz(), cfg.CellsPerCluster)
	scene.MaxRangeM = 80
	scene.BuildIndex()
	ula := antenna.NewULA(cfg.Cluster.ArrayElems, scene.Band.CarrierHz)
	lattice := env.HallUEPositions(16)
	rng := rand.New(rand.NewSource(seeds.Mix(seed, labelProbe)))
	order := rng.Perm(len(lattice))
	links := make([]link, n)
	for i := range links {
		cell := 0
		if i >= n/2 {
			cell = rng.Intn(len(poses))
		}
		pos := lattice[order[i%len(order)]]
		l := &links[i]
		l.gnb = poses[cell]
		l.ue = env.Pose{Pos: pos, Facing: env.FacingFrom(pos, l.gnb.Pos)}
		l.paths = scene.TraceAppend(nil, l.gnb, l.ue)
		if len(l.paths) == 0 {
			return nil, nil, fmt.Errorf("layer probe: no path from cell %d to %v", cell, pos)
		}
		if len(l.paths) > 3 {
			l.paths = l.paths[:3]
		}
		l.model = channel.New(scene.Band, ula, l.paths)
		l.model.Reuse = true
		l.beam = ula.SingleBeam(l.paths[0].AoD)
	}
	return scene, links, nil
}

// timeCalls runs call probeCalls times, each under a span named name, and
// reports the median in microseconds as metric.
func timeCalls(r *report, tr *tracer, metric, name string, call func(i int)) {
	parent := tr.begin("probe." + metric)
	for i := 0; i < probeCalls; i++ {
		id := tr.begin(name)
		call(i)
		tr.end(id)
	}
	tr.end(parent)
	us := tr.durations(parent, name, time.Microsecond)
	r.addLayer(metric, median(us), "us", len(us))
}

// layerProbes times one public call of each link layer on inputs built
// from the workload's scene and seed, and drives one site's cluster built
// from the workload's site config.
func layerProbes(r *report, tr *tracer, seed int64, cfg metro.Config) error {
	const nLinks = 8
	scene, links, err := sceneLinks(seed, cfg, nLinks)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seeds.Mix(seed, labelProbe, 1)))
	snd, err := nr.NewSounder(nr.Mu3(), 400e6, 64, 1e-6, nr.DefaultImpairments(), rng)
	if err != nil {
		return err
	}
	offs := snd.SubcarrierOffsets()
	ws := scratch.New()

	traceBuf := make([]env.Path, 0, 64)
	timeCalls(r, tr, "env.trace_us", "env.TraceAppend", func(i int) {
		l := &links[i%nLinks]
		traceBuf = scene.TraceAppend(traceBuf[:0], l.gnb, l.ue)
	})

	var batch channel.WidebandBatch
	timeCalls(r, tr, "channel.batch_eval_us", "channel.WidebandBatch.Eval", func(int) {
		batch.Reset(offs)
		for k := range links {
			batch.Add(links[k].model, links[k].beam)
		}
		mk := ws.Mark()
		batch.Eval(ws)
		ws.Release(mk)
	})

	csi := make(cmx.Vector, snd.NumSC)
	timeCalls(r, tr, "nr.probe_us", "nr.Sounder.ProbeInto", func(i int) {
		l := &links[i%nLinks]
		snd.ProbeInto(l.model, l.beam, csi)
	})

	cirs := make([]cmx.Vector, nLinks)
	rels := make([][]float64, nLinks)
	for k, l := range links {
		w := l.model.PerAntennaCSI(0).Conj().Normalize()
		cirs[k] = snd.CIR(snd.Probe(l.model, w))
		for _, p := range l.paths {
			rels[k] = append(rels[k], p.Delay-l.paths[0].Delay)
		}
	}
	var extractErr error
	timeCalls(r, tr, "superres.extract_us", "superres.ExtractInto", func(i int) {
		k := i % nLinks
		mk := ws.Mark()
		if _, err := superres.ExtractInto(cirs[k], rels[k], snd.SampleSpacing(), superres.DefaultConfig(), ws); err != nil && extractErr == nil {
			extractErr = err
		}
		ws.Release(mk)
	})
	r.check(extractErr == nil, "superres.ExtractInto: %v", extractErr)

	if err := managerProbe(r, tr, seed, scene, cfg, links[:4]); err != nil {
		return err
	}
	hybridProbe(r, tr, links[:nLinks/2], offs)
	return clusterProbe(r, tr, seed, scene, cfg)
}

// managerProbe establishes one manager per link through the sim runner and
// times steady-state maintenance rounds through Manager.Step.
func managerProbe(r *report, tr *tracer, seed int64, scene *env.Environment, cfg metro.Config, links []link) error {
	mcfg := cfg.Cluster.Station.Manager
	type est struct {
		mgr *manager.Manager
		ch  *channel.Model
		t   float64
	}
	var ests []est
	for k, l := range links {
		sc := &sim.Scenario{
			Env: scene, GNB: l.gnb, UE: motion.Static{Pose: l.ue},
			Duration: 0.3, Num: nr.Mu3(), MaxPaths: 3,
			TxArray: antenna.NewULA(cfg.Cluster.ArrayElems, scene.Band.CarrierHz),
		}
		mgr, err := manager.New(fmt.Sprintf("probe%d", k), sc.TxArray, sim.IndoorBudget(), nr.Mu3(), mcfg,
			rand.New(rand.NewSource(seeds.Mix(seed, labelProbe, 2, int64(k)))))
		if err != nil {
			return err
		}
		if _, err := (sim.Runner{}).Run(sc, mgr); err != nil {
			return err
		}
		r.check(mgr.Established(), "manager probe: link %d not established", k)
		ests = append(ests, est{mgr, sc.ChannelAt(sc.Duration), sc.Duration})
	}
	timeCalls(r, tr, "manager.step_us", "manager.Manager.Step", func(i int) {
		e := &ests[i%len(ests)]
		e.t += mcfg.MaintainPeriod
		e.mgr.Step(e.t, e.ch)
	})
	return nil
}

// hybridProbe times the MMSE combiner on the group formed by links (all at
// one cell): entry (u,v) is UE u's channel through UE v's beam.
func hybridProbe(r *report, tr *tracer, links []link, offs []float64) {
	k := len(links)
	c := hybrid.NewCombiner(k, len(offs))
	c.Begin(k)
	for u := range links {
		for v := range links {
			re, im := c.Entry(u, v)
			links[u].model.EffectiveWidebandSplitInto(links[v].beam, offs, re, im)
		}
	}
	txLin, noiseLin := sim.IndoorBudget().SNRTerms()
	var solveErr error
	timeCalls(r, tr, "hybrid.solve_us", "hybrid.Combiner.Solve", func(int) {
		c.Begin(k)
		if err := c.Solve(txLin, noiseLin); err != nil && solveErr == nil {
			solveErr = err
		}
	})
	r.check(solveErr == nil, "hybrid.Combiner.Solve: %v", solveErr)
}

// clusterProbe builds one site from the workload's site config (same
// scene, cluster config, UE count and walker share) and times
// cluster.AdvanceFrame. The monitor reuse ratio is read here, from the
// cluster itself: metro.CountersTotal does not sum MonitorRowsReused.
func clusterProbe(r *report, tr *tracer, seed int64, scene *env.Environment, cfg metro.Config) error {
	ccfg := cfg.Cluster
	ccfg.Seed = seeds.Mix(seed, labelProbe, 3)
	_, poses := env.MultiCellHall(scene.Band, cfg.CellsPerCluster)
	cl, err := cluster.New(nr.Mu3(), ccfg, cluster.Deployment{Env: scene, Cells: poses, Budget: sim.IndoorBudget()})
	if err != nil {
		return err
	}
	lattice := env.HallUEPositions(16)
	walkers := int(math.Ceil(cfg.MobileFraction * float64(cfg.UEsPerCluster)))
	for u := 0; u < cfg.UEsPerCluster; u++ {
		uc := cluster.UEConfig{Pos: lattice[u]}
		if u < walkers {
			uc.Motion = pacer{a: lattice[u], b: lattice[len(lattice)-1-u], speed: 1.4}
		}
		if _, err := cl.AddUE(uc); err != nil {
			return err
		}
	}
	warm := tr.begin("probe.cluster.warmup") // admit, establish both legs, warm buffers
	for i := 0; i < 40; i++ {
		id := tr.begin("cluster.AdvanceFrame")
		cl.AdvanceFrame()
		tr.end(id)
	}
	tr.end(warm)
	parent := tr.begin("probe.cluster")
	for i := 0; i < 200; i++ {
		id := tr.begin("cluster.AdvanceFrame")
		cl.AdvanceFrame()
		tr.end(id)
	}
	tr.end(parent)
	us := tr.durations(parent, "cluster.AdvanceFrame", time.Microsecond)
	r.addLayer("cluster.frame_us_p50", median(us), "us", len(us))
	cc := cl.CountersSnapshot()
	r.addLayer("cluster.monitor_reuse_ratio", ratio(cc.MonitorRowsReused, cc.MonitorProbes), "ratio", cc.MonitorProbes)
	return nil
}
