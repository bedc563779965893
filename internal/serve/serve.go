// Package serve is the long-running service layer: a frame-loop daemon
// that owns a metro.Metro and advances it continuously — in scaled time or
// as fast as possible — while an HTTP/JSON control plane injects events
// and reads telemetry.
//
// The concurrency model is the repo's frame-boundary contract, extended to
// a daemon: the simulation advances on ONE goroutine (the Run loop), and
// nothing else touches simulation state. Writes go through a buffered
// command queue the loop drains between frames; the caller waits for the
// loop's reply. Commands therefore apply at exact frame boundaries, which
// is what makes them journalable: a snapshot records the config, the frame
// count, and the journal of (frame, command) pairs, and a restore rebuilds
// the daemon from config and silently replays the frames — byte-identical
// at any worker count, by the same determinism contract every batch CLI
// pins in CI. Reads never wait for a frame: after every frame, after the
// scripted commands of a boundary, and after every successful write (before
// its reply), the loop publishes a preallocated view of the boundary state,
// and Status / MetricsText copy the last one out under a mutex and render
// it on the caller's goroutine. See DESIGN.md "Service layer".
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"mmreliable/internal/metro"
	"mmreliable/internal/nr"
)

// Config assembles a daemon. Metro and Script are the replay identity —
// they are serialized into snapshots and must not change across a
// restore. TimeScale, StatusEvery, and MaxFrames are runtime knobs: they
// pace and bound the loop without affecting simulated state, so a restore
// may override them freely (Workers too — it is inside Metro but
// explicitly determinism-neutral; Shards is NOT, see metro.Config).
type Config struct {
	// Metro sizes and seeds the city.
	Metro metro.Config `json:"metro"`
	// Script is a deterministic schedule of commands applied at their
	// Frame's boundary — the reproducible way to drive lifecycle and
	// blockage events into a serving run (CI uses it for the
	// kill-and-restore diff). Must be sorted by Frame.
	Script []Command `json:"script,omitempty"`

	// TimeScale paces the loop: simulated seconds per wall second. 1 is
	// real time, 2 twice as fast, 0 as-fast-as-possible. Pacing never
	// affects simulated output.
	TimeScale float64 `json:"-"`
	// StatusEvery emits a deterministic status line every N frames to the
	// status writer (0 = off).
	StatusEvery int `json:"-"`
	// MaxFrames stops Run after the metro reaches this frame (0 = run
	// until the context is canceled).
	MaxFrames int `json:"-"`
}

// ErrStopped is returned by control-plane calls once the serving loop has
// exited.
var ErrStopped = errors.New("serve: loop stopped")

// reply carries a command's outcome back to the waiting caller.
type reply struct {
	val any
	err error
}

// pending is one queued control-plane request: a journalable command or a
// query the loop evaluates at the boundary (snapshots, and reads that
// arrive before the first view is published).
type pending struct {
	cmd   *Command
	query func() (any, error)
	reply chan reply
}

// Server is the daemon: one metro, one loop goroutine, one command queue,
// one published boundary view.
type Server struct {
	cfg Config
	m   *metro.Metro

	statusW io.Writer // deterministic status stream (nil = off)

	cmds chan *pending
	done chan struct{}

	// Loop-owned state (no locks: only the Run goroutine touches these
	// after New, except where documented otherwise).
	journal    []Command
	scriptIdx  int
	scriptErrs int

	startWall  time.Time
	startFrame int

	// Read side. The loop captures into back and swaps it with front under
	// viewMu; readers copy front out under viewMu. harvest is the loop's
	// sketch-merge scratch for the capture.
	viewMu      sync.Mutex
	front, back *view
	published   bool // guarded by viewMu
	harvest     metro.Sketch
}

// New builds a serving daemon over a fresh metro.
func New(cfg Config) (*Server, error) {
	if cfg.TimeScale < 0 {
		return nil, fmt.Errorf("serve: TimeScale %g < 0", cfg.TimeScale)
	}
	if cfg.StatusEvery < 0 {
		return nil, fmt.Errorf("serve: StatusEvery %d < 0", cfg.StatusEvery)
	}
	if cfg.MaxFrames < 0 {
		return nil, fmt.Errorf("serve: MaxFrames %d < 0", cfg.MaxFrames)
	}
	if !sort.SliceIsSorted(cfg.Script, func(i, j int) bool {
		return cfg.Script[i].Frame < cfg.Script[j].Frame
	}) {
		return nil, fmt.Errorf("serve: script not sorted by frame")
	}
	for i, c := range cfg.Script {
		if c.Frame < 0 {
			return nil, fmt.Errorf("serve: script[%d] frame %d < 0", i, c.Frame)
		}
		if err := c.validate(); err != nil {
			return nil, fmt.Errorf("serve: script[%d]: %w", i, err)
		}
	}
	m, err := metro.New(nr.Mu3(), cfg.Metro)
	if err != nil {
		return nil, err
	}
	return &Server{
		cfg:   cfg,
		m:     m,
		cmds:  make(chan *pending, 64),
		done:  make(chan struct{}),
		front: &view{site: make([]siteView, 0, m.Sites())},
		back:  &view{site: make([]siteView, 0, m.Sites())},
	}, nil
}

// SetStatusWriter installs the deterministic status stream destination.
// Must be called before Run.
func (s *Server) SetStatusWriter(w io.Writer) { s.statusW = w }

// Metro exposes the owned metro for after-Run inspection. Must not be
// used while Run is executing.
func (s *Server) Metro() *metro.Metro { return s.m }

// Frame returns the next frame index. Loop-owned; callers outside the
// loop should use Status instead.
func (s *Server) Frame() int { return s.m.Frame() }

// ScriptErrs returns how many scripted commands failed to apply (each
// failure is deterministic and harmless to replay — the command changes
// nothing — but usually indicates a script bug).
func (s *Server) ScriptErrs() int { return s.scriptErrs }

// Run advances the metro until the context is canceled or MaxFrames is
// reached. It publishes the boundary view once before the first frame —
// the metro may have been advanced or restored since New — so reads are
// served from then on. It must be called at most once; control-plane calls
// made after it returns fail with ErrStopped.
func (s *Server) Run(ctx context.Context) error {
	defer close(s.done)
	s.startWall = time.Now()
	s.startFrame = s.m.Frame()
	s.publish()

	var pace time.Duration
	var next time.Time
	if s.cfg.TimeScale > 0 {
		pace = time.Duration(s.m.FramePeriod() / s.cfg.TimeScale * float64(time.Second))
		next = time.Now()
	}
	for {
		select {
		case <-ctx.Done():
			return nil
		default:
		}
		if s.cfg.MaxFrames > 0 && s.m.Frame() >= s.cfg.MaxFrames {
			return nil
		}
		s.step()
		if pace > 0 {
			next = next.Add(pace)
			if d := time.Until(next); d > 0 {
				t := time.NewTimer(d)
				select {
				case <-ctx.Done():
					t.Stop()
				case <-t.C:
				}
			} else if d < -10*pace {
				next = time.Now() // fell far behind; stop chasing the deficit
			}
		}
	}
}

// step executes one frame boundary plus one frame: scripted commands due
// at this boundary, then queued control-plane requests, then the frame
// itself, then the view publication and (on cadence) the status line. The
// view published after the frame is also the next boundary's view until a
// scripted command or a write changes that boundary's state, and each of
// those re-publishes it. With the control plane idle and status off this is
// allocation-free — the daemon inherits the metro's zero-alloc steady
// state.
func (s *Server) step() {
	f := s.m.Frame()
	if s.applyScriptAt(f) {
		s.publish()
	}
	s.drainQueue(f)
	s.m.AdvanceFrame()
	s.publish()
	if s.cfg.StatusEvery > 0 && s.m.Frame()%s.cfg.StatusEvery == 0 {
		s.writeStatus()
	}
}

// applyScriptAt applies every scripted command due at boundary f and
// reports whether there was any. Script failures are deterministic no-ops
// (counted, never journaled).
func (s *Server) applyScriptAt(f int) bool {
	applied := false
	for s.scriptIdx < len(s.cfg.Script) && s.cfg.Script[s.scriptIdx].Frame <= f {
		c := s.cfg.Script[s.scriptIdx]
		s.scriptIdx++
		applied = true
		if _, err := s.applyCommand(c); err != nil {
			s.scriptErrs++
		}
	}
	return applied
}

// drainQueue serves every control-plane request already queued at
// boundary f, in arrival order. Requests arriving while a frame runs wait
// for the next boundary.
func (s *Server) drainQueue(f int) {
	for {
		select {
		case p := <-s.cmds:
			s.handle(p, f)
		default:
			return
		}
	}
}

// handle executes one queued request at boundary f: queries evaluate
// against the quiescent state; commands are stamped with the boundary
// frame, applied, journaled and published on success — the view is
// current before the caller hears back, so a read after a write sees it.
func (s *Server) handle(p *pending, f int) {
	if p.query != nil {
		val, err := p.query()
		p.reply <- reply{val: val, err: err}
		return
	}
	c := *p.cmd
	c.Frame = f
	val, err := s.applyCommand(c)
	if err == nil {
		s.journal = append(s.journal, c)
		s.publish()
	}
	p.reply <- reply{val: val, err: err}
}

// do enqueues a request and waits for the loop's boundary reply.
func (s *Server) do(p *pending) (any, error) {
	select {
	case s.cmds <- p:
	case <-s.done:
		return nil, ErrStopped
	}
	select {
	case r := <-p.reply:
		return r.val, r.err
	case <-s.done:
		// The loop may have replied just before exiting.
		select {
		case r := <-p.reply:
			return r.val, r.err
		default:
			return nil, ErrStopped
		}
	}
}

// Inject applies a command at the next frame boundary and returns its
// result. cmd.Frame is ignored — the loop stamps the boundary it applies
// the command at (returned in InjectResult.Frame and recorded in the
// journal).
func (s *Server) Inject(cmd Command) (InjectResult, error) {
	p := &pending{cmd: &cmd, reply: make(chan reply, 1)}
	val, err := s.do(p)
	if err != nil {
		return InjectResult{}, err
	}
	return val.(InjectResult), nil
}

// Status returns the daemon's deterministic state plus wall-clock
// throughput as of the last published boundary view. It never waits for a
// frame: the loop publishes after every frame and after every write that
// changed the boundary, so a Status read after a successful Inject sees it.
// Only a call before the loop's first publication waits (for Run to start).
func (s *Server) Status() (Status, error) {
	v, err := s.lastView()
	if err != nil {
		return Status{}, err
	}
	return v.status(), nil
}

// MetricsText renders the Prometheus exposition from the last published
// boundary view, on the caller's goroutine — it never waits for a frame.
// O(sites): counters, sketch merges, no per-UE walks.
func (s *Server) MetricsText() (string, error) {
	v, err := s.lastView()
	if err != nil {
		return "", err
	}
	return v.metricsText(), nil
}

// SnapshotJSON builds the versioned snapshot document at the next frame
// boundary.
func (s *Server) SnapshotJSON() ([]byte, error) {
	p := &pending{reply: make(chan reply, 1), query: func() (any, error) {
		return s.snapshotNow()
	}}
	val, err := s.do(p)
	if err != nil {
		return nil, err
	}
	return val.([]byte), nil
}

// SnapshotJSONDirect builds the snapshot document without going through
// the queue. Only safe when the loop is not running (before Run, or after
// it returned) — the CLI's shutdown snapshot path.
func (s *Server) SnapshotJSONDirect() ([]byte, error) { return s.snapshotNow() }

// Close does nothing: the daemon owns no goroutines besides Run's loop
// (internal/par owns the process's one pool). It stays only because
// perfbench calls it.
func (s *Server) Close() {}
