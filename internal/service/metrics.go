package service

import (
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// serverMetrics holds the service layer's HTTP instruments, all registered
// on one obs.Registry (shared with the harness observer, which carries the
// session's cache and worker-slot families, and, via RunnerOptions, with the
// embedding process). A nil *serverMetrics is a no-op everywhere,
// so the hot paths carry no conditionals — but New always builds one, since
// the registry also backs GET /metrics.
//
// Cardinality (DESIGN.md §10): endpoint labels come from the fixed route
// table (never from request paths), code labels are the handful of statuses
// the API emits — every family here is bounded by construction.
type serverMetrics struct {
	requests *obs.CounterVec   // repro_http_requests_total{endpoint,code}
	latency  *obs.HistogramVec // repro_http_request_seconds{endpoint}
	inflight *obs.Gauge        // repro_http_inflight_requests
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	return &serverMetrics{
		requests: reg.CounterVec("repro_http_requests_total",
			"API requests by route and response status.",
			"endpoint", "code"),
		latency: reg.HistogramVec("repro_http_request_seconds",
			"API request wall time by route, first byte to handler return.",
			nil, "endpoint"),
		inflight: reg.Gauge("repro_http_inflight_requests",
			"API requests currently being handled."),
	}
}

// statusWriter captures the response status (and bytes, for access logs
// layered above).
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Unwrap supports http.ResponseController.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// handle registers pattern on the mux with per-endpoint instrumentation.
// The endpoint label is this explicit registration-time name — never the
// request path — so family cardinality equals the route table.
func (s *Server) handle(pattern, endpoint string, h http.HandlerFunc) {
	m := s.metrics
	lat := m.latency.With(endpoint)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		m.inflight.Inc()
		start := time.Now()
		h(sw, r)
		lat.Observe(time.Since(start).Seconds())
		m.inflight.Dec()
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		m.requests.With(endpoint, strconv.Itoa(sw.status)).Inc()
	})
}
