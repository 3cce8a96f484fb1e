package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"hashstash"
	"hashstash/hashstasherr"
	"hashstash/internal/memgov"
)

// queryRequest is the POST /query body.
type queryRequest struct {
	SQL       string `json:"sql"`
	Tenant    string `json:"tenant,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// errorResponse is any error body.
type errorResponse struct {
	Error string `json:"error"`
}

// StatusFor maps the typed error taxonomy to HTTP statuses: client
// mistakes (parse, unknown table/column) are 400, deadline/cancel 408,
// admission refusal 429, draining 503, and internal failures —
// including isolated operator panics — 500.
func StatusFor(err error) int {
	var pe *hashstasherr.ParseError
	switch {
	case errors.As(err, &pe),
		errors.Is(err, hashstasherr.ErrUnknownTable),
		errors.Is(err, hashstasherr.ErrUnknownColumn):
		return http.StatusBadRequest
	case errors.Is(err, hashstasherr.ErrCanceled),
		errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout
	case errors.Is(err, hashstasherr.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, hashstasherr.ErrShuttingDown):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// healthResponse is the GET /healthz body.
type healthResponse struct {
	// Status is "ok", "degraded" (soft memory pressure: measures
	// active, still serving), "overloaded" (hard watermark: admission
	// refused) or "draining" (shutdown in progress).
	Status string `json:"status"`
	// Measures lists the active degradation measures (empty when ok).
	Measures []string `json:"measures,omitempty"`
	// FootprintBytes is the governed memory footprint at last refresh.
	FootprintBytes int64 `json:"footprint_bytes,omitempty"`
}

// Handler returns the HTTP front-end:
//
//	POST /query    {"sql": ..., "tenant": ..., "timeout_ms": ...}
//	GET  /stats    server + cache statistics
//	GET  /healthz  health with degradation detail
//
// The tenant may also arrive in the X-Hashstash-Tenant header; the
// body field wins. /healthz answers 200 while the server can serve
// (ok and degraded) and 503 when it cannot (overloaded, draining), so
// load balancers route away exactly when admission would refuse.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.closed
	s.mu.Unlock()

	resp := healthResponse{Status: "ok"}
	code := http.StatusOK
	if gov := s.governor(); gov != nil {
		switch gov.Refresh() {
		case memgov.Soft:
			resp.Status = "degraded"
		case memgov.Hard:
			resp.Status = "overloaded"
			code = http.StatusServiceUnavailable
		}
		resp.Measures = gov.Measures()
		resp.FootprintBytes = gov.Footprint()
	}
	if draining {
		resp.Status = "draining"
		resp.Measures = append(resp.Measures, "shutdown")
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, resp)
}

func writeJSON(w http.ResponseWriter, status int, body interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return
	}
	var req queryRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	if req.SQL == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing sql"})
		return
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = r.Header.Get("X-Hashstash-Tenant")
	}

	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}

	res, info, err := s.execute(ctx, tenant, req.SQL)
	if err != nil {
		var oe *hashstasherr.OverloadedError
		if errors.As(err, &oe) && oe.RetryAfter > 0 {
			secs := int(oe.RetryAfter.Round(time.Second) / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		writeJSON(w, StatusFor(err), errorResponse{Error: err.Error()})
		return
	}
	buf := getBuf()
	defer putBuf(buf)
	*buf = appendResult(*buf, res, info, false)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(*buf)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(*buf) // a failed write means the client went away
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Server Stats                `json:"server"`
		Cache  hashstash.CacheStats `json:"cache"`
	}{s.Stats(), s.db.CacheStats()})
}
