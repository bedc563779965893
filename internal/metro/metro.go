// Package metro is the city-scale sharded simulation layer: hundreds to a
// thousand cluster.Cluster instances ("sites") advanced frame-synchronously
// across a worker pool, with UE session churn per site and streaming
// aggregation of every finished UE into constant-size per-shard sketches.
// It is the driver that turns the paper's per-link reliability machinery
// into deployment-scale numbers — 10³ cells / 10⁵ UE-sessions on one
// machine — without holding per-UE state for anyone who already left.
//
// Determinism contract (the same one the station, cluster, and experiment
// layers obey): every site's entire evolution — its cluster seed, its churn
// arrival/departure stream, its UE drop positions — derives from
// seeds.Mix(Seed, label, site) and advances inside the site only. Shards
// are contiguous site ranges; a shard is executed start-to-finish by
// whichever worker steals it, so per-shard sketch folds happen in site
// order no matter which worker runs them, and the final reduction walks
// shards in index order on the caller's goroutine. Results are therefore
// byte-identical at any -workers, pinned by TestMetroDeterminismAcrossWorkers.
//
// All sites share one read-only environment with a built spatial index
// (env.Index): concurrent tracing is safe (per-query scratch comes from a
// sync.Pool) and the per-slot ray-trace cost stays local rather than
// O(total walls).
package metro

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"mmreliable/internal/cluster"
	"mmreliable/internal/env"
	"mmreliable/internal/link"
	"mmreliable/internal/nr"
	"mmreliable/internal/par"
	"mmreliable/internal/seeds"
	"mmreliable/internal/sim"
)

// Seed-stream labels for the metro layer's RNG derivation (station uses
// 981, cluster 991–993; see internal/seeds).
const (
	labelMetroCluster = 995 // per-site cluster seeds
	labelMetroChurn   = 996 // per-site churn streams (arrivals, sessions, drops)
)

// Config sizes and seeds the metro simulation.
type Config struct {
	// Seed drives every derived stream via seeds.Mix(Seed, label, site).
	Seed int64
	// Clusters is the number of cluster sites; CellsPerCluster gNBs each,
	// so total cells = Clusters × CellsPerCluster.
	Clusters int
	// CellsPerCluster is the gNB count per site (the MultiCellHall scene).
	CellsPerCluster int
	// UEsPerCluster is the initial UE population per site, attached at t=0.
	UEsPerCluster int
	// Workers is how many par.For workers step the shards; 0 means
	// GOMAXPROCS. Results are byte-identical at any value.
	Workers int
	// Shards is the number of contiguous site ranges used as work-stealing
	// units and sketch-aggregation grains; 0 picks min(Clusters, 64).
	// Sketches cost O(Shards) memory regardless of how many UEs ever
	// existed. The byte-identical determinism contract holds across any
	// Workers at a FIXED shard partition — the default is deliberately
	// independent of Workers so "same config, different -workers" reduces
	// float sums with identical bracketing. Changing Shards regroups the
	// reduction and may move the last ulp of the aggregate means.
	Shards int
	// ChurnArrivalRate is the mean UE arrival rate per site in UEs/second
	// (Poisson, per-site stream). 0 disables churn: the initial population
	// stays for the whole run.
	ChurnArrivalRate float64
	// MeanSessionS is the mean churned-UE session length in seconds
	// (exponential, floored at MinSessionS). Applies to churn arrivals and,
	// when churn is enabled, to the initial population too.
	MeanSessionS float64
	// MinSessionS floors session lengths so a session always outlives
	// admission plus warmup. Default 0.3 s.
	MinSessionS float64
	// MobileFraction is the fraction of UEs (initial population and churn
	// arrivals alike) that are mobile: each paces back and forth between its
	// drop position and a second lattice point at SpeedMPS, panel tracking
	// whichever cell it talks to. 0 (the default) keeps every UE static —
	// and, to keep existing seeds reproducible, draws nothing from the churn
	// stream. The mix is what the incremental frame engine's benchmarks
	// exercise: static UEs ride the quiescent fast paths, mobile UEs pay
	// full recompute every slot.
	MobileFraction float64
	// SpeedMPS is the mobile UEs' walking speed in m/s. 0 defaults to 1.4
	// (pedestrian).
	SpeedMPS float64
	// Cluster configures every site's coordinator; Seed is overridden per
	// site.
	Cluster cluster.Config
}

// DefaultConfig returns a small default metro: 8 two-cell sites with two
// resident UEs each and moderate churn, fading off (the quiescent
// zero-alloc fixture; flip Cluster.DisableFading for fading realism).
func DefaultConfig() Config {
	ccfg := cluster.DefaultConfig()
	ccfg.DisableFading = true
	ccfg.Station.Manager.ProactiveTracking = false
	return Config{
		Seed:             1,
		Clusters:         8,
		CellsPerCluster:  2,
		UEsPerCluster:    2,
		ChurnArrivalRate: 1.5,
		MeanSessionS:     1.2,
		MinSessionS:      0.3,
		Cluster:          ccfg,
	}
}

// site is one cluster instance plus its private churn stream.
type site struct {
	cl  *cluster.Cluster
	rng *rand.Rand
	// crs is rng's counting source: the churn stream's consumed-draw
	// counter, which snapshots record and restores verify (the pair
	// (seed, draws) fully describes the stream position; see seeds).
	crs         *seeds.CountingSource
	nextArrival float64
	// harvestFn folds finished UEs into the owning shard's sketch; prebound
	// so the steady-state frame loop stays off the allocator.
	harvestFn func(cluster.UEOutcome, *link.Meter, *link.Meter)
}

// Metro is the sharded city simulation.
type Metro struct {
	cfg      Config
	num      nr.Numerology
	sites    []*site
	sketches []Sketch
	// siteSketches holds the same harvested-UE aggregates at per-site
	// granularity — the backing of the telemetry layer's site-labeled
	// metrics. Filled by the same prebound harvestFn as the shard sketches
	// (one extra O(1) fold per finished UE), so folds stay in site order and
	// the per-site aggregates are byte-identical at any worker count.
	siteSketches []Sketch
	shardLo      []int // shard s covers sites[shardLo[s]:shardLo[s+1]]
	positions    []env.Vec2
	cells        []env.Pose // every site's gNB poses (one shared hall)
	walls        []env.Wall // the shared hall's walls, interior ones included
	workers      int
	frame        int
	runShardFn   func(worker, s int) // runShard, bound once: no closure per frame
}

// New builds the metro: one shared indexed environment, Clusters cluster
// sites with per-site seeds, and the initial UE population.
func New(num nr.Numerology, cfg Config) (*Metro, error) {
	if cfg.Clusters < 1 {
		return nil, fmt.Errorf("metro: Clusters %d < 1", cfg.Clusters)
	}
	if cfg.CellsPerCluster < 1 {
		return nil, fmt.Errorf("metro: CellsPerCluster %d < 1", cfg.CellsPerCluster)
	}
	if cfg.UEsPerCluster < 0 || cfg.ChurnArrivalRate < 0 || cfg.MeanSessionS < 0 {
		return nil, fmt.Errorf("metro: negative population parameter")
	}
	if cfg.ChurnArrivalRate > 0 && cfg.MeanSessionS == 0 {
		return nil, fmt.Errorf("metro: churn arrivals need MeanSessionS > 0")
	}
	if cfg.MinSessionS <= 0 {
		cfg.MinSessionS = 0.3
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = 64 // worker-independent (see Config.Shards)
	}
	if shards > cfg.Clusters {
		shards = cfg.Clusters
	}
	if workers > shards {
		workers = shards
	}

	// One shared read-only scene for every site: the multi-cell hall with
	// the spatial index built (concurrent tracing is index-safe), and a
	// finite range so the index can also prune reflection candidates.
	scene, poses := env.MultiCellHall(env.Band28GHz(), cfg.CellsPerCluster)
	scene.MaxRangeM = 80
	scene.BuildIndex()
	dep := cluster.Deployment{Env: scene, Cells: poses, Budget: sim.IndoorBudget()}
	// A fixed lattice of candidate drop positions; churn picks among them.
	nPos := cfg.UEsPerCluster
	if nPos < 16 {
		nPos = 16
	}
	positions := env.HallUEPositions(nPos)

	m := &Metro{
		cfg:          cfg,
		num:          num,
		sketches:     make([]Sketch, shards),
		siteSketches: make([]Sketch, cfg.Clusters),
		positions:    positions,
		cells:        poses,
		walls:        scene.Walls,
		workers:      workers,
	}
	m.runShardFn = m.runShard
	per := (cfg.Clusters + shards - 1) / shards
	for lo := 0; lo < cfg.Clusters; lo += per {
		m.shardLo = append(m.shardLo, lo)
	}
	m.shardLo = append(m.shardLo, cfg.Clusters)

	for si := 0; si < cfg.Clusters; si++ {
		ccfg := cfg.Cluster
		ccfg.Seed = seeds.Mix(cfg.Seed, labelMetroCluster, int64(si))
		cl, err := cluster.New(num, ccfg, dep)
		if err != nil {
			return nil, fmt.Errorf("metro: site %d: %w", si, err)
		}
		s := &site{cl: cl}
		// Counting wrapper around the same stream the plain construction
		// drew: values are identical, positions become serializable.
		s.rng, s.crs = seeds.NewCountingRand(seeds.Mix(cfg.Seed, labelMetroChurn, int64(si)))
		sk := &m.sketches[m.shardOf(si)]
		ssk := &m.siteSketches[si]
		s.harvestFn = func(out cluster.UEOutcome, serving, diversity *link.Meter) {
			sk.AddUE(out, serving, diversity)
			ssk.AddUE(out, serving, diversity)
		}
		if cfg.ChurnArrivalRate > 0 {
			s.nextArrival = s.rng.ExpFloat64() / cfg.ChurnArrivalRate
		}
		for u := 0; u < cfg.UEsPerCluster; u++ {
			uc := m.newUEConfig(s, positions[u%len(positions)])
			if cfg.ChurnArrivalRate > 0 {
				uc.DetachAt = m.sessionLen(s)
			}
			if _, err := cl.AddUE(uc); err != nil {
				return nil, fmt.Errorf("metro: site %d initial UE %d: %w", si, u, err)
			}
		}
		m.sites = append(m.sites, s)
	}
	return m, nil
}

// pacer walks back and forth along the segment a→b at constant speed — a
// bounded pedestrian trace that keeps a mobile UE inside the hall for runs
// of any length. Its facing is irrelevant: the cluster re-faces each pair's
// panel toward its cell (see cluster.UEConfig.Motion).
type pacer struct {
	a, b  env.Vec2
	speed float64
	span  float64 // |b−a|, > 0
}

// At implements motion.Trace.
func (p pacer) At(t float64) env.Pose {
	d := math.Mod(p.speed*t, 2*p.span)
	if d > p.span {
		d = 2*p.span - d
	}
	f := d / p.span
	return env.Pose{Pos: env.Vec2{X: p.a.X + f*(p.b.X-p.a.X), Y: p.a.Y + f*(p.b.Y-p.a.Y)}}
}

// newUEConfig builds one UE's drop config at position pos, drawing its
// mobility (mobile-or-static, destination) from the site's churn stream.
// With MobileFraction = 0 nothing is drawn, so pre-mobility churn streams
// replay identically.
func (m *Metro) newUEConfig(s *site, pos env.Vec2) cluster.UEConfig {
	uc := cluster.UEConfig{Pos: pos}
	if m.cfg.MobileFraction > 0 && s.rng.Float64() < m.cfg.MobileFraction {
		to := m.positions[s.rng.Intn(len(m.positions))]
		if span := to.Sub(pos).Norm(); span > 1e-9 {
			speed := m.cfg.SpeedMPS
			if speed <= 0 {
				speed = 1.4 // pedestrian
			}
			uc.Motion = pacer{a: pos, b: to, speed: speed, span: span}
		}
	}
	return uc
}

// shardOf returns the shard owning site si.
func (m *Metro) shardOf(si int) int {
	per := m.shardLo[1] - m.shardLo[0]
	s := si / per
	if s >= len(m.shardLo)-1 {
		s = len(m.shardLo) - 2
	}
	return s
}

// sessionLen draws one session duration from the site's churn stream.
func (m *Metro) sessionLen(s *site) float64 {
	d := m.cfg.MeanSessionS * s.rng.ExpFloat64()
	if d < m.cfg.MinSessionS {
		d = m.cfg.MinSessionS
	}
	return d
}

// Frame returns the index of the next metro frame to execute.
func (m *Metro) Frame() int { return m.frame }

// FramePeriod returns the duration of one metro frame in seconds.
func (m *Metro) FramePeriod() float64 { return m.sites[0].cl.FramePeriod() }

// Cells returns the total gNB count across all sites.
func (m *Metro) Cells() int { return len(m.sites) * m.cfg.CellsPerCluster }

// ResidentUEs returns the UEs currently resident across all sites (attached
// or awaiting admission; harvested UEs excluded). Safe between frames.
func (m *Metro) ResidentUEs() int {
	n := 0
	for _, s := range m.sites {
		n += s.cl.ResidentUEs()
	}
	return n
}

// Workers returns the effective worker count.
func (m *Metro) Workers() int { return m.workers }

// Shards returns the effective shard count.
func (m *Metro) Shards() int { return len(m.shardLo) - 1 }

// AdvanceFrame executes one metro frame: every site advances one cluster
// frame (churn arrivals first, finished-UE harvest after), shard by shard
// through par.For, which returns only when every shard is done. Workers
// claim whole shards off par's atomic cursor, so a shard whose sites hit
// expensive re-establishments doesn't serialize the rest of the city
// behind it. With Workers ≥ 2 the shards are the outermost For: each
// station inside steps its units inline on the shard's worker. With one
// worker the shards run inline and each station's own For wakes the pool.
func (m *Metro) AdvanceFrame() {
	par.For(m.workers, m.Shards(), m.runShardFn)
	m.frame++
}

// runShard steps shard s's sites in order.
func (m *Metro) runShard(_, s int) {
	for _, st := range m.sites[m.shardLo[s]:m.shardLo[s+1]] {
		m.stepSite(st)
	}
}

// stepSite advances one site by one frame: releases due churn arrivals into
// the cluster, advances the cluster frame, and streams finished UEs out
// into the owning shard's sketch.
func (m *Metro) stepSite(s *site) {
	t0 := s.cl.Now()
	if m.cfg.ChurnArrivalRate > 0 {
		for s.nextArrival <= t0 {
			at := s.nextArrival
			uc := m.newUEConfig(s, m.positions[s.rng.Intn(len(m.positions))])
			uc.AttachAt = at
			uc.DetachAt = at + m.sessionLen(s)
			if _, err := s.cl.AddUE(uc); err != nil {
				// UEConfig is constructed valid here; an error is a bug.
				panic(fmt.Sprintf("metro: churn AddUE: %v", err))
			}
			s.nextArrival = at + s.rng.ExpFloat64()/m.cfg.ChurnArrivalRate
		}
	}
	s.cl.AdvanceFrame()
	// Harvest unconditionally: churned sessions AND live-injected detaches
	// (serve layer) stream out. With churn off and no injections nothing is
	// ever done, so the sweep finds nothing and the sketches stay empty —
	// pre-serve outputs are unchanged.
	s.cl.HarvestFinished(s.harvestFn)
}

// Run advances whole frames until the metro clock reaches duration
// (absolute simulated seconds) and returns the results.
func (m *Metro) Run(duration float64) Results {
	frames := int(math.Ceil(duration / m.FramePeriod()))
	for i := 0; i < frames; i++ {
		m.AdvanceFrame()
	}
	return m.Results()
}

// Close does nothing: the metro owns no goroutines (internal/par owns the
// process's one pool). It stays only because perfbench calls it.
func (m *Metro) Close() {}
