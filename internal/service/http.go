package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"privateer/internal/obs"
)

// SubmitRequest is the POST /submit body.
type SubmitRequest struct {
	// Tenant attributes the job ("" = "default").
	Tenant string `json:"tenant"`
	// Prog names one of the five benchmark programs.
	Prog string `json:"prog"`
	// Input is the input class: train, ref (default), alt or huge.
	Input string `json:"input"`
}

// errorReply is the JSON body of every non-2xx API response.
type errorReply struct {
	Error string `json:"error"`
}

// Mount registers the service API on srv's listener, alongside the
// introspection endpoints: POST /submit, GET /poll?id=..., GET /service,
// GET /jobs/{id}/trace, GET /debug/flight. It also installs the readiness
// probe backing /readyz, which flips to 503 during Drain. Call before
// srv.Start.
func (s *Service) Mount(srv *obs.Server) {
	srv.Handle("/submit", http.HandlerFunc(s.handleSubmit))
	srv.Handle("/poll", http.HandlerFunc(s.handlePoll))
	srv.Handle("/service", http.HandlerFunc(s.handleSnapshot))
	srv.Handle("/jobs/", http.HandlerFunc(s.handleJobTrace))
	srv.Handle("/debug/flight", http.HandlerFunc(s.handleFlight))
	srv.SetReady(func() bool { return !s.drainFlag.Load() })
}

// writeJSON renders v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// maxSubmitBytes bounds a /submit body; a valid request is three short
// strings.
const maxSubmitBytes = 4 << 10

// handleSubmit admits a job: 202 with the job snapshot, 400 on a malformed
// body or unknown program, 413 on a body over maxSubmitBytes, 429 on quota
// or queue backpressure (with Retry-After), 503 once draining.
func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorReply{"POST only"})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorReply{fmt.Sprintf("body over %d bytes", maxSubmitBytes)})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorReply{"reading body: " + err.Error()})
		return
	}
	var req SubmitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorReply{"bad JSON: " + err.Error()})
		return
	}
	job, err := s.Submit(req.Tenant, req.Prog, req.Input)
	if err != nil {
		var unknown *UnknownProgramError
		var quota *QuotaError
		var full *QueueFullError
		switch {
		case errors.As(err, &unknown):
			writeJSON(w, http.StatusBadRequest, errorReply{err.Error()})
		case errors.As(err, &quota), errors.As(err, &full):
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, errorReply{err.Error()})
		case errors.Is(err, ErrDraining):
			writeJSON(w, http.StatusServiceUnavailable, errorReply{err.Error()})
		default:
			writeJSON(w, http.StatusInternalServerError, errorReply{err.Error()})
		}
		return
	}
	writeJSON(w, http.StatusAccepted, s.View(job))
}

// handlePoll reports one job: 200 with the snapshot, 404 for an unknown
// ID, 400 without one.
func (s *Service) handlePoll(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id == "" {
		writeJSON(w, http.StatusBadRequest, errorReply{"missing id parameter"})
		return
	}
	job, ok := s.Job(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorReply{"no job " + id})
		return
	}
	writeJSON(w, http.StatusOK, s.View(job))
}

// handleSnapshot reports service-level state (queue, tenants, pools).
func (s *Service) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

// handleJobTrace serves GET /jobs/{id}/trace: the job's retained event
// stream as Chrome trace_event JSON (load in chrome://tracing or
// Perfetto), 404 for an unknown job or one submitted with tracing
// disabled, 400 for any other /jobs/ path shape.
func (s *Service) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	parts := strings.Split(strings.Trim(strings.TrimPrefix(r.URL.Path, "/jobs/"), "/"), "/")
	if len(parts) != 2 || parts[0] == "" || parts[1] != "trace" {
		writeJSON(w, http.StatusBadRequest, errorReply{"want /jobs/{id}/trace"})
		return
	}
	id := parts[0]
	events, ok := s.Trace(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorReply{"no trace for job " + id})
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = obs.WriteJobTrace(w, id, events)
}

// handleFlight serves GET /debug/flight: the flight recorder's retained
// postmortems (newest first) with capture counts by reason.
func (s *Service) handleFlight(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.flight.State())
}
