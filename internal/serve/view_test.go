package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sync"
	"testing"
	"time"
)

// goldenDaemon steps the golden fixture to frame 40: testConfig(1) with the
// demo script and one journaled blockage applied at boundary 10 through the
// loop's own handler. The files under testdata/ were rendered from this
// fixture by the queue-served reads the view replaced (with the byte-wise
// digest fold), so they pin that the view renders exactly what those did.
func goldenDaemon(t *testing.T) *Server {
	t.Helper()
	cfg := testConfig(1)
	cfg.Script = DemoScript()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 40; i++ {
		if i == 10 {
			s.applyScriptAt(s.m.Frame())
			p := &pending{cmd: &Command{Op: OpBlockage, Site: 1, UE: 0, DepthDB: 20, DurationS: 0.05}, reply: make(chan reply, 1)}
			s.handle(p, s.m.Frame())
			if r := <-p.reply; r.err != nil {
				t.Fatalf("inject: %v", r.err)
			}
		}
		s.step()
	}
	return s
}

// TestViewMatchesGolden: the published view renders the /metrics exposition
// byte for byte as the golden file, and the /status JSON identically except
// for the digest value (the fold changed, the state it folds did not).
func TestViewMatchesGolden(t *testing.T) {
	s := goldenDaemon(t)
	var v view
	if !s.copyView(&v) {
		t.Fatal("no view published after 40 steps")
	}

	want, err := os.ReadFile("testdata/view_metrics.golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := v.metricsText(); got != string(want) {
		t.Errorf("/metrics diverged from golden:\n--- golden\n%s--- view\n%s", want, got)
	}

	want, err = os.ReadFile("testdata/view_status.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	json.NewEncoder(&got).Encode(v.status())
	stripDigest := regexp.MustCompile(`"digest":"[0-9a-f]{16}"`)
	if g, w := stripDigest.ReplaceAll(got.Bytes(), nil), stripDigest.ReplaceAll(want, nil); !bytes.Equal(g, w) {
		t.Errorf("/status diverged from golden (digest stripped):\n--- golden\n%s--- view\n%s", w, g)
	}
}

// TestReadYourWrites: with Run live, every successful write is visible to
// the next /status read — the loop publishes before it replies.
func TestReadYourWrites(t *testing.T) {
	ts, _, stop := startDaemon(t)
	defer stop()
	for i := 0; i < 50; i++ {
		body := fmt.Sprintf(`{"site":%d,"ue":%d,"depth_db":20,"duration_s":0.05}`, i%4, i%2)
		if code, b := postJSON(t, ts.URL+"/event/blockage", body); code != http.StatusOK {
			t.Fatalf("write %d: %d %s", i, code, b)
		}
		resp, err := http.Get(ts.URL + "/status")
		if err != nil {
			t.Fatalf("GET /status: %v", err)
		}
		var st Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode status: %v", err)
		}
		if st.JournalLen != i+1 {
			t.Fatalf("after write %d /status shows journal_len %d, want %d", i, st.JournalLen, i+1)
		}
	}
}

// TestReadsNeverEnqueue parks the loop between frames (a time scale so slow
// the next frame is hours away) and checks that reads still answer from the
// view, leave the command queue empty, and that a write — which must wait
// for the next boundary — really is stuck.
func TestReadsNeverEnqueue(t *testing.T) {
	cfg := testConfig(1)
	cfg.StatusEvery = 0
	cfg.TimeScale = 1e-6
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		s.Run(ctx)
	}()
	ts := httptest.NewServer(s.Handler())
	// The stuck write's handler returns only once the loop stops, and
	// ts.Close waits for it: stop the loop first.
	defer func() {
		cancel()
		<-ran
		ts.Close()
	}()

	// Run publishes frame 0, steps one frame, publishes frame 1, then sleeps.
	deadline := time.Now().Add(10 * time.Second)
	for v := (view{}); !s.copyView(&v) || v.st.Frame < 1; {
		if time.Now().After(deadline) {
			t.Fatalf("loop never published frame 1 (at %d)", v.st.Frame)
		}
		time.Sleep(time.Millisecond)
	}

	// A read that enqueued would wait for a boundary hours away: bound
	// every read so that fails instead of hanging.
	hc := &http.Client{Timeout: 5 * time.Second}
	for _, path := range []string{"/status", "/metrics", "/status"} {
		resp, err := hc.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s with the loop parked: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s with the loop parked: %d", path, resp.StatusCode)
		}
	}
	read := make(chan Status, 1)
	go func() {
		st, _ := s.Status()
		read <- st
	}()
	select {
	case st := <-read:
		if st.Frame != 1 {
			t.Fatalf("Status with the loop parked after frame 1 reports frame %d", st.Frame)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Status did not answer with the loop parked")
	}
	if n := len(s.cmds); n != 0 {
		t.Fatalf("reads left %d requests in the command queue", n)
	}

	hc.Timeout = 200 * time.Millisecond
	if resp, err := hc.Post(ts.URL+"/event/blockage", "application/json",
		bytes.NewReader([]byte(`{"site":0,"ue":0,"depth_db":20,"duration_s":0.05}`))); err == nil {
		resp.Body.Close()
		t.Fatalf("write answered %d with the loop parked: the loop was not parked", resp.StatusCode)
	}
}

// TestViewConcurrentReaders hammers Status and MetricsText from several
// goroutines while Run advances a churning city (run under -race): every
// read succeeds or reports ErrStopped, and each reader sees frames in
// order.
func TestViewConcurrentReaders(t *testing.T) {
	cfg := testConfig(2)
	cfg.StatusEvery = 0
	cfg.MaxFrames = 40
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		s.Run(context.Background())
	}()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			last := -1
			for {
				st, err := s.Status()
				if err == ErrStopped {
					return
				}
				if err != nil {
					errs <- err
					return
				}
				if st.Frame < last {
					errs <- fmt.Errorf("reader %d: frame went back from %d to %d", r, last, st.Frame)
					return
				}
				last = st.Frame
				if r%2 == 1 {
					if _, err := s.MetricsText(); err != nil && err != ErrStopped {
						errs <- err
						return
					}
				}
			}
		}(r)
	}
	<-ran
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
