package sweepd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// Handler returns the service's HTTP surface (see the package comment
// for the route table), wrapped in the request-id/RED-metrics/access-log
// middleware. It uses only net/http method patterns — no router
// dependency. Liveness (/healthz: the process is up) and readiness
// (/readyz: replay finished, campaigns are servable) are split so
// orchestration can restart a hung server without draining one that is
// merely replaying a large journal — the pre-replay window is covered by
// Gate, which answers /readyz with 503 until this handler is installed.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/campaigns", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/campaigns", s.handleList)
	mux.HandleFunc("GET /api/v1/campaigns/{id}", s.handleInfo)
	mux.HandleFunc("POST /api/v1/campaigns/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/rows", s.handleRows)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/artifact.csv", s.handleArtifact("csv"))
	mux.HandleFunc("GET /api/v1/campaigns/{id}/artifact.json", s.handleArtifact("json"))
	mux.HandleFunc("GET /api/v1/campaigns/{id}/telemetry", s.handleTelemetry)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		// Reaching this handler is readiness: NewService finished replaying
		// the data directory before the handler could be installed.
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "ready")
	})
	return s.instrument(mux)
}

// httpError is the JSON error envelope every non-2xx response uses.
func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// maxSubmitBytes bounds a spec upload; the engine's own MaxJobs guard
// bounds the expansion, this bounds the parse.
const maxSubmitBytes = 1 << 20

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding submit request: %w", err))
		return
	}
	if _, err := dec.Token(); err != io.EOF {
		httpError(w, http.StatusBadRequest, errors.New("decoding submit request: trailing data after the request object"))
		return
	}
	c, err := s.Submit(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, c.Info())
}

func (s *Service) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

// campaignFor resolves the {id} path value, writing the 404 itself.
func (s *Service) campaignFor(w http.ResponseWriter, r *http.Request) (*Campaign, bool) {
	id := r.PathValue("id")
	c, ok := s.Campaign(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown campaign %q", id))
	}
	return c, ok
}

func (s *Service) handleInfo(w http.ResponseWriter, r *http.Request) {
	if c, ok := s.campaignFor(w, r); ok {
		writeJSON(w, http.StatusOK, c.Info())
	}
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaignFor(w, r)
	if !ok {
		return
	}
	if err := s.Cancel(c.ID); err != nil {
		httpError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, c.Info())
}

// handleRows streams result rows as NDJSON: the journaled/completed
// backlog first (from ?offset=, default 0), then live rows as jobs
// finish, ending with a terminal event when the campaign reaches a final
// state. Each line is flushed immediately; the subscriber's bounded
// window is the backpressure contract — a consumer that cannot keep up
// is disconnected with an err event and reconnects with ?offset=.
func (s *Service) handleRows(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaignFor(w, r)
	if !ok {
		return
	}
	offset := 0
	if q := r.URL.Query().Get("offset"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad offset %q", q))
			return
		}
		offset = n
	}

	backlog, sub, state := c.subscribe(offset)
	if sub != nil {
		defer c.unsubscribe(sub)
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(ev RowEvent) bool {
		if err := enc.Encode(ev); err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	for i := range backlog {
		if !emit(RowEvent{Seq: offset + i + 1, Row: &backlog[i]}) {
			return
		}
		c.metrics.rowsStreamed.Inc()
	}
	if sub == nil {
		// Already terminal at attach time.
		emit(RowEvent{Done: true, State: state.String()})
		return
	}
	ctx := r.Context()
	for {
		select {
		case ev, open := <-sub.ch:
			if !open {
				if sub.lagged {
					emit(RowEvent{Err: fmt.Sprintf(
						"slow consumer: fell more than %d rows behind; reconnect with ?offset=", c.window)})
				}
				return
			}
			if !emit(ev) {
				return
			}
			if ev.Done {
				return
			}
		case <-ctx.Done():
			return
		}
	}
}

// handleArtifact serves the merged CSV/JSON artifact. Before completion
// it reports 409 unless ?partial=1 explicitly asks for the
// rows-completed-so-far merge (still deterministic per row, but not the
// full grid).
func (s *Service) handleArtifact(format string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c, ok := s.campaignFor(w, r)
		if !ok {
			return
		}
		info := c.Info()
		if info.State != StateCompleted.String() && r.URL.Query().Get("partial") != "1" {
			httpError(w, http.StatusConflict, fmt.Errorf(
				"campaign %s is %s (%d/%d rows); pass ?partial=1 for the incomplete merge",
				c.ID, info.State, info.Done, info.Total))
			return
		}
		res := c.Result()
		var err error
		switch format {
		case "csv":
			w.Header().Set("Content-Type", "text/csv")
			err = res.WriteCSV(w)
		case "json":
			w.Header().Set("Content-Type", "application/json")
			err = res.WriteJSON(w)
		}
		if err != nil && !errors.Is(err, http.ErrHandlerTimeout) {
			s.logger.Warn("writing artifact failed",
				"campaign", c.ID, "request_id", RequestID(r.Context()), "err", err)
		}
	}
}

// handleTelemetry streams the campaign's per-job flight roll-ups as
// NDJSON (one TelemetryRecord per line, sorted by key like the
// artifacts). It mirrors the artifact contract: 409 before completion
// unless ?partial=1, and 404 when the campaign was submitted without
// telemetry.
func (s *Service) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaignFor(w, r)
	if !ok {
		return
	}
	if !c.Telemetry() {
		httpError(w, http.StatusNotFound, fmt.Errorf(
			"campaign %s was submitted without telemetry; resubmit with \"telemetry\": true", c.ID))
		return
	}
	info := c.Info()
	if info.State != StateCompleted.String() && r.URL.Query().Get("partial") != "1" {
		httpError(w, http.StatusConflict, fmt.Errorf(
			"campaign %s is %s (%d/%d rows); pass ?partial=1 for the records so far",
			c.ID, info.State, info.Done, info.Total))
		return
	}
	recs, err := c.TelemetryRecords()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			s.logger.Warn("writing telemetry failed",
				"campaign", c.ID, "request_id", RequestID(r.Context()), "err", err)
			return
		}
	}
}

func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.reg.WritePrometheus(w)
}
