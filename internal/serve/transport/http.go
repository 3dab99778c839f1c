// Package transport maps the serving engine onto HTTP: request decoding,
// typed-error-to-status translation and the four-route API mux. It holds
// every HTTP type the serving stack uses — internal/serve/engine stays
// transport-free — and speaks to the engine only through the Service
// interface, so tests can put a stub behind the same mux.
package transport

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"repro/internal/serve/engine"
)

// Service is the allocation backend a mux fronts: an *engine.Engine, or a
// stub in tests. Allocate must return the engine package's typed errors so
// statusOf can map them.
type Service interface {
	// Allocate runs one decoded request to completion.
	Allocate(ctx context.Context, req *engine.Request) (*engine.Response, error)
	// MaxProgramBytes reports the per-request program-text bound, used to cap
	// HTTP body reads.
	MaxProgramBytes() int
	// StatsJSON returns the /statsz document.
	StatsJSON() any
	// WriteMetrics renders the /metrics text exposition.
	WriteMetrics(w io.Writer) error
	// MetricsJSON returns the same metrics as a JSON-marshallable value, the
	// /metrics?format=json document body.
	MetricsJSON() any
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
	// Kind is a stable machine-readable category: "bad_request",
	// "overloaded", "closed", "timeout" or "internal".
	Kind string `json:"kind"`
}

// statusOf maps an engine error to its HTTP status and error kind.
func statusOf(err error) (int, string) {
	var reqErr *engine.RequestError
	switch {
	case errors.As(err, &reqErr):
		return http.StatusBadRequest, "bad_request"
	case errors.Is(err, engine.ErrOverloaded):
		return http.StatusTooManyRequests, "overloaded"
	case errors.Is(err, engine.ErrClosed):
		return http.StatusServiceUnavailable, "closed"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, "timeout"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// NewMux routes the serving API onto svc:
//
//	POST /v1/allocate  — TAC program + options in, per-block results out
//	GET  /healthz      — liveness probe
//	GET  /statsz       — JSON stats snapshot
//	GET  /metrics      — text metric exposition
func NewMux(svc Service) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/allocate", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "bad_request", "POST only")
			return
		}
		// The JSON envelope around the program adds little; 4x the program
		// bound is a generous body cap.
		body := http.MaxBytesReader(w, r.Body, int64(4*svc.MaxProgramBytes()))
		req, err := engine.DecodeRequest(body, svc.MaxProgramBytes())
		if err != nil {
			status, kind := statusOf(err)
			writeError(w, status, kind, err.Error())
			return
		}
		resp, err := svc.Allocate(r.Context(), req)
		if err != nil {
			status, kind := statusOf(err)
			writeError(w, status, kind, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.StatsJSON())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		// Process-wide gauges (RSS, GC pauses, goroutines) are sampled here,
		// once per page at scrape time, rather than kept in the engine's
		// registry: they describe the process, not the engine.
		if r.URL.Query().Get("format") == "json" {
			writeJSON(w, http.StatusOK, map[string]any{
				"metrics": svc.MetricsJSON(),
				"proc":    engine.SampleProc().Metrics(),
			})
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = svc.WriteMetrics(w)
		_ = engine.WriteProcMetrics(w)
	})
	return mux
}

// writeJSON emits a JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError emits the JSON error envelope.
func writeError(w http.ResponseWriter, status int, kind, msg string) {
	writeJSON(w, status, errorBody{Error: msg, Kind: kind})
}
