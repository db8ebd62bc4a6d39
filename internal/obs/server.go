package obs

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"time"

	"robustdb/internal/trace"
)

// ServerConfig wires the HTTP surface to the engine's observability state.
type ServerConfig struct {
	// Registry backs /metrics and /debug/snapshot. Required.
	Registry *trace.Registry
	// Tracer backs /debug/spans; nil serves an empty span list.
	Tracer *trace.Tracer
	// Detectors feed /healthz; empty means /healthz always reports ok.
	Detectors []*Detector
	// Log, when non-nil, receives one debug record per handled request.
	Log *slog.Logger
	// Build identifies the binary on /metrics (robustdb_build_info); the
	// zero value renders empty labels. Fill with ReadBuildInfo().
	Build BuildInfo
	// Uptime supplies the process-uptime gauge on /metrics; nil reports 0.
	// The serve command passes a wall-clock closure (the obs package itself
	// stays clock-free for the virtualtime determinism rule).
	Uptime func() time.Duration
}

// spanLimit bounds /debug/spans to the most recent spans.
const spanLimit = 256

// contentTypeProm is the exposition-format content type Prometheus expects.
const contentTypeProm = "text/plain; version=0.0.4; charset=utf-8"

// NewMux builds the observability mux:
//
//	/metrics        Prometheus text exposition of the registry
//	/healthz        JSON detector summary; 200 ok / 503 degraded
//	/debug/snapshot JSON dump of the raw registry snapshot, all five kinds
//	/debug/spans    JSON of the newest spans, copied from the tracer's ring
//	/debug/pprof/   the standard Go profiling handlers
//
// The mux is returned (not installed on http.DefaultServeMux) so callers
// control the listener and shutdown.
func NewMux(cfg ServerConfig) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", cfg.logged(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", contentTypeProm)
		var uptime time.Duration
		if cfg.Uptime != nil {
			uptime = cfg.Uptime()
		}
		if err := WriteExposition(w, cfg.Registry.Snapshot(), cfg.Build, uptime); err != nil {
			// The scraper hung up mid-response; the next scrape starts fresh.
			return
		}
	}))
	mux.HandleFunc("/healthz", cfg.logged(cfg.handleHealth))
	mux.HandleFunc("/debug/snapshot", cfg.logged(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, cfg.Registry.Snapshot())
	}))
	mux.HandleFunc("/debug/spans", cfg.logged(func(w http.ResponseWriter, r *http.Request) {
		spans := cfg.Tracer.Tail(spanLimit) // nil tracer returns nil
		if spans == nil {
			spans = []trace.Span{}
		}
		writeJSON(w, http.StatusOK, spans)
	}))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Health is the /healthz response shape.
type Health struct {
	Status    string          `json:"status"` // "ok" or "degraded"
	Detectors []DetectorState `json:"detectors"`
}

func (cfg ServerConfig) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := Health{Status: "ok", Detectors: make([]DetectorState, 0, len(cfg.Detectors))}
	for _, d := range cfg.Detectors {
		st := d.State()
		if st.Degraded {
			h.Status = "degraded"
		}
		h.Detectors = append(h.Detectors, st)
	}
	code := http.StatusOK
	if h.Status != "ok" {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

// logged wraps a handler with one debug log record per request.
func (cfg ServerConfig) logged(h http.HandlerFunc) http.HandlerFunc {
	if cfg.Log == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		if cfg.Log.Enabled(context.Background(), slog.LevelDebug) {
			cfg.Log.LogAttrs(context.Background(), slog.LevelDebug, "http request",
				slog.String("component", "obs"),
				slog.String("path", r.URL.Path))
		}
		h(w, r)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// The client hung up mid-response; nothing to recover server-side.
		return
	}
}
