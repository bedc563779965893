package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// startDaemon runs a churn-free daemon (UE ids stay predictable) with the
// control plane mounted on an httptest server.
func startDaemon(t *testing.T) (ts *httptest.Server, s *Server, stop func()) {
	t.Helper()
	cfg := testConfig(1)
	cfg.Metro.ChurnArrivalRate = 0
	cfg.StatusEvery = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Run(ctx)
	}()
	ts = httptest.NewServer(s.Handler())
	return ts, s, func() {
		ts.Close()
		cancel()
		<-done
	}
}

func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

func TestHTTPStatusAndMetrics(t *testing.T) {
	ts, _, stop := startDaemon(t)
	defer stop()

	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatalf("GET /status: %v", err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /status: %d", resp.StatusCode)
	}
	if st.Sites != 4 || st.Cells != 8 || st.ResidentUEs != 8 {
		t.Errorf("status = sites:%d cells:%d ues:%d, want 4/8/8", st.Sites, st.Cells, st.ResidentUEs)
	}
	if st.Digest == "" || len(st.Digest) != 16 {
		t.Errorf("status digest %q, want 16 hex chars", st.Digest)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE mmserved_frame gauge",
		"mmserved_resident_ues 8",
		"# TYPE mmserved_handovers_total counter",
		"mmserved_harvested_rel_hist{bin=\"0\"}",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, buf.String())
		}
	}
}

func TestHTTPLifecycleRoundTrip(t *testing.T) {
	ts, _, stop := startDaemon(t)
	defer stop()

	// Attach a UE to site 2 at an explicit position.
	code, body := postJSON(t, ts.URL+"/ue/attach", `{"site":2,"x":3.5,"y":1.25,"duration_s":5}`)
	if code != http.StatusOK {
		t.Fatalf("attach: %d %s", code, body)
	}
	var res InjectResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("attach result: %v", err)
	}
	if res.Op != OpAttach || res.UE != 2 { // site 2's initial UEs are 0 and 1
		t.Errorf("attach result %+v, want op=attach ue=2", res)
	}

	// Detach it again.
	code, body = postJSON(t, ts.URL+"/ue/detach", fmt.Sprintf(`{"site":2,"ue":%d}`, res.UE))
	if code != http.StatusOK {
		t.Fatalf("detach: %d %s", code, body)
	}

	// Blockage on a resident UE's serving cell (cell omitted).
	code, body = postJSON(t, ts.URL+"/event/blockage", `{"site":0,"ue":0,"depth_db":25,"duration_s":0.05}`)
	if code != http.StatusOK {
		t.Fatalf("blockage: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatalf("blockage result: %v", err)
	}
	if res.Cell < 0 {
		t.Errorf("blockage did not resolve a serving cell: %+v", res)
	}

	// Hot-reload a knob.
	code, body = postJSON(t, ts.URL+"/config", `{"probe_budget":2}`)
	if code != http.StatusOK {
		t.Fatalf("config: %d %s", code, body)
	}

	// All four landed in the journal.
	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatalf("GET /status: %v", err)
	}
	var st Status
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.JournalLen != 4 {
		t.Errorf("journal length %d, want 4", st.JournalLen)
	}
}

func TestHTTPValidationErrors(t *testing.T) {
	ts, _, stop := startDaemon(t)
	defer stop()

	cases := []struct {
		name, path, body string
	}{
		{"attach bad site", "/ue/attach", `{"site":99}`},
		{"attach x without y", "/ue/attach", `{"site":0,"x":1}`},
		{"attach unknown field", "/ue/attach", `{"site":0,"altitude":3}`},
		{"attach off the floor", "/ue/attach", `{"site":0,"x":1e6,"y":1e6}`},
		{"attach on a gNB", "/ue/attach", `{"site":0,"x":5,"y":0.4}`},
		{"attach on an interior wall", "/ue/attach", `{"site":0,"x":6,"y":7.8}`},
		{"detach unknown ue", "/ue/detach", `{"site":0,"ue":9999}`},
		{"blockage zero depth", "/event/blockage", `{"site":0,"ue":0,"duration_s":1}`},
		{"config negative budget", "/config", `{"probe_budget":-1}`},
		{"config typoed knob", "/config", `{"prob_budget":2}`},
		{"malformed json", "/config", `{`},
	}
	for _, tc := range cases {
		code, body := postJSON(t, ts.URL+tc.path, tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", tc.name, code, body)
			continue
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error body %q not {\"error\":...}", tc.name, body)
		}
	}
}

func TestHTTPSnapshotRestores(t *testing.T) {
	ts, _, stop := startDaemon(t)

	code, body := postJSON(t, ts.URL+"/config", `{"probe_budget":2}`)
	if code != http.StatusOK {
		t.Fatalf("config: %d %s", code, body)
	}
	resp, err := http.Post(ts.URL+"/snapshot", "application/json", nil)
	if err != nil {
		t.Fatalf("POST /snapshot: %v", err)
	}
	var blob bytes.Buffer
	blob.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /snapshot: %d %s", resp.StatusCode, blob.String())
	}
	stop()

	// The live snapshot — journal included — restores in a fresh daemon.
	if _, err := Restore(blob.Bytes(), Runtime{}); err != nil {
		t.Fatalf("Restore of live snapshot: %v", err)
	}
}

func TestHTTPStoppedDaemonReturns503(t *testing.T) {
	cfg := testConfig(1)
	cfg.MaxFrames = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatalf("GET /status: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("GET /status on stopped daemon: %d, want 503", resp.StatusCode)
	}
}

// TestHTTPBodyLimits: a body over maxBodyBytes gets 413 and one carrying
// more than a single JSON value gets 400 on every write route, and neither
// reaches the journal.
func TestHTTPBodyLimits(t *testing.T) {
	ts, _, stop := startDaemon(t)
	defer stop()

	pad := strings.Repeat(" ", maxBodyBytes)
	valid := map[string]string{
		"/ue/attach":      `{"site":0}`,
		"/ue/detach":      `{"site":0,"ue":0}`,
		"/event/blockage": `{"site":0,"ue":0,"depth_db":25,"duration_s":0.05}`,
		"/config":         `{"probe_budget":2}`,
	}
	for path, body := range valid {
		for _, tc := range []struct {
			name, body string
			code       int
		}{
			{"padded before", pad + body, http.StatusRequestEntityTooLarge},
			{"padded after", body + pad, http.StatusRequestEntityTooLarge},
			{"second value", body + body, http.StatusBadRequest},
			{"trailing garbage", body + "x", http.StatusBadRequest},
		} {
			code, resp := postJSON(t, ts.URL+path, tc.body)
			if code != tc.code {
				t.Errorf("%s %s: status %d (%.80s), want %d", path, tc.name, code, resp, tc.code)
			}
		}
	}

	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatalf("GET /status: %v", err)
	}
	var st Status
	json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if st.JournalLen != 0 {
		t.Errorf("rejected bodies reached the journal: journal_len %d", st.JournalLen)
	}
}
