package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"mmreliable/internal/cluster"
	"mmreliable/internal/metro"
)

// Handler returns the control-plane mux. Handlers never touch simulation
// state directly. GET /status and GET /metrics copy the last published
// boundary view and render it on the request's goroutine, so they never
// wait for a frame or stall one; writes and POST /snapshot round-trip
// through the frame-boundary queue. Attaching the control plane adds
// nothing to the frame loop until a write actually arrives.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /status", s.handleStatus)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /ue/attach", s.handleAttach)
	mux.HandleFunc("POST /ue/detach", s.handleDetach)
	mux.HandleFunc("POST /event/blockage", s.handleBlockage)
	mux.HandleFunc("POST /config", s.handleConfig)
	mux.HandleFunc("POST /snapshot", s.handleSnapshot)
	return mux
}

// httpError maps control-plane failures: loop gone → 503, body over
// maxBodyBytes → 413, everything else (validation, unknown targets) → 400.
func httpError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	switch {
	case errors.Is(err, ErrStopped):
		code = http.StatusServiceUnavailable
	case errors.As(err, &tooBig):
		code = http.StatusRequestEntityTooLarge
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// maxBodyBytes bounds a control-plane request body. The largest legitimate
// one, a full /config tuning object, is a few hundred bytes.
const maxBodyBytes = 64 << 10

// decodeBody strictly decodes the request body into v: at most
// maxBodyBytes, exactly one JSON value, unknown fields rejected (a typoed
// knob must not silently no-op).
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		if err == nil {
			err = errors.New("more than one JSON value")
		}
		return fmt.Errorf("bad request body: trailing data: %w", err)
	}
	return nil
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status()
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, st)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	txt, err := s.MetricsText()
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprint(w, txt)
}

func (s *Server) handleAttach(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Site      int      `json:"site"`
		X         *float64 `json:"x"`
		Y         *float64 `json:"y"`
		DurationS float64  `json:"duration_s"`
	}
	if err := decodeBody(w, r, &body); err != nil {
		httpError(w, err)
		return
	}
	spec := metro.AttachSpec{DurationS: body.DurationS}
	if body.X != nil && body.Y != nil {
		spec.HasPos, spec.X, spec.Y = true, *body.X, *body.Y
	} else if body.X != nil || body.Y != nil {
		httpError(w, fmt.Errorf("x and y must be given together"))
		return
	}
	res, err := s.Inject(Command{Op: OpAttach, Site: body.Site, Attach: &spec})
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, res)
}

func (s *Server) handleDetach(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Site int `json:"site"`
		UE   int `json:"ue"`
	}
	if err := decodeBody(w, r, &body); err != nil {
		httpError(w, err)
		return
	}
	res, err := s.Inject(Command{Op: OpDetach, Site: body.Site, UE: body.UE})
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, res)
}

func (s *Server) handleBlockage(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Site      int     `json:"site"`
		UE        int     `json:"ue"`
		Cell      *int    `json:"cell"`
		DepthDB   float64 `json:"depth_db"`
		DurationS float64 `json:"duration_s"`
	}
	if err := decodeBody(w, r, &body); err != nil {
		httpError(w, err)
		return
	}
	res, err := s.Inject(Command{
		Op: OpBlockage, Site: body.Site, UE: body.UE, Cell: body.Cell,
		DepthDB: body.DepthDB, DurationS: body.DurationS,
	})
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, res)
}

func (s *Server) handleConfig(w http.ResponseWriter, r *http.Request) {
	var t cluster.Tuning
	if err := decodeBody(w, r, &t); err != nil {
		httpError(w, err)
		return
	}
	res, err := s.Inject(Command{Op: OpTune, Tune: &t})
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, res)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	blob, err := s.SnapshotJSON()
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(blob)
}
