package server

import (
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"rdfanalytics/internal/fault"
	"rdfanalytics/internal/obs"
)

// Counters for session lifecycle events; the active-session count is a
// GaugeFunc registered in NewWithConfig (it reads the live map).
var (
	sessionsCreated = obs.Default.Counter("rdfa_http_sessions_created_total")
	sessionsEvicted = obs.Default.Counter("rdfa_http_sessions_evicted_total")
)

// statusWriter captures the status code a handler writes, defaulting to 200
// when the handler never calls WriteHeader explicitly.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// ServeHTTP implements http.Handler: every request goes through the
// telemetry middleware, which records a per-endpoint latency histogram and
// a per-endpoint/status request counter, plus the hardening middleware —
// panic recovery, POST body caps, and (when the operator enabled fault
// injection) a per-request fault site. The endpoint label is the ServeMux
// pattern that matched (e.g. "POST /api/run"), so cardinality is bounded by
// the route table, not by URLs.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w}
	// Request-ID middleware: keep a well-formed client-supplied X-Request-ID
	// (so ids propagate through proxies and retries), mint one otherwise, and
	// stamp it on both the request (handlers, the slow-query log and traces
	// read it back) and the response.
	id := r.Header.Get(headerRequestID)
	if !validRequestID(id) {
		id = newRequestID()
	}
	r.Header.Set(headerRequestID, id)
	sw.Header().Set(headerRequestID, id)
	// Trace-ID middleware, same contract: accept a well-formed client
	// X-Trace-ID (distributed callers correlate their own traces), mint one
	// otherwise. Handlers thread it into the engine via queryCtx; cached
	// answers overwrite the response header with the retained filler's ID.
	tid := r.Header.Get(headerTraceID)
	if !validRequestID(tid) {
		tid = obs.NewTraceID()
	}
	r.Header.Set(headerTraceID, tid)
	sw.Header().Set(headerTraceID, tid)
	if r.Method == http.MethodPost {
		if max := s.cfg.maxBodyBytes(); max > 0 {
			r.Body = http.MaxBytesReader(sw, r.Body, max)
		}
	}
	func() {
		defer recoverPanic(sw, r)
		// The X-Fault header only selects a site; nothing fires unless the
		// operator armed that site via RDFA_FAULT (chaos testing).
		if fault.Enabled() {
			if site := r.Header.Get("X-Fault"); site != "" {
				fault.Inject("server.handler." + site)
			}
		}
		s.mux.ServeHTTP(sw, r)
	}()
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	endpoint := r.Pattern
	if endpoint == "" {
		endpoint = "unmatched"
	}
	dur := time.Since(start)
	requests, lat := s.routeMetrics.handles(endpoint, sw.status)
	requests.Inc()
	// Exemplar link: when the trace this request produced (or was served
	// from — cached answers overwrite the response header) was retained,
	// attach its ID to the latency observation so a p95 spike on /metrics
	// resolves to a concrete span waterfall. Only IDs
	// that will actually resolve through /api/traces are attached.
	if tid := sw.Header().Get(headerTraceID); s.traces.Contains(tid) {
		lat.ObserveExemplar(dur.Seconds(), tid)
	} else {
		lat.Observe(dur.Seconds())
	}
	s.recordHTTPSLO(endpoint, sw.status, dur)
}

// routeMetrics memoizes the middleware's metric handles per route and
// status: resolving a labelled handle renders its label key on every call.
// The map is bounded by the route table and the statuses its handlers write.
type routeMetrics struct {
	mu      sync.Mutex
	handled map[routeStatus]routeHandles
}

type routeStatus struct {
	endpoint string
	status   int
}

type routeHandles struct {
	requests *obs.Counter
	latency  *obs.Histogram
}

// handles returns the request counter of (endpoint, status) and the latency
// histogram of endpoint, resolving them on their first request.
func (m *routeMetrics) handles(endpoint string, status int) (*obs.Counter, *obs.Histogram) {
	key := routeStatus{endpoint, status}
	m.mu.Lock()
	h, ok := m.handled[key]
	m.mu.Unlock()
	if !ok {
		h = routeHandles{
			requests: obs.Default.Counter("rdfa_http_requests_total",
				"endpoint", endpoint, "status", strconv.Itoa(status)),
			latency: obs.Default.Histogram("rdfa_http_request_seconds", nil,
				"endpoint", endpoint),
		}
		m.mu.Lock()
		if m.handled == nil {
			m.handled = map[routeStatus]routeHandles{}
		}
		m.handled[key] = h
		m.mu.Unlock()
	}
	return h.requests, h.latency
}

// recordHTTPSLO folds one finished request into the HTTP objectives:
// availability (good = non-5xx), the process-wide latency objective, and a
// lazily created per-endpoint latency objective. Probe and scrape endpoints
// are excluded from the per-endpoint set — they are not user traffic and
// would dilute the burn rates — and the operator's checkpoint trigger from
// both latency objectives: a checkpoint is as long as the graph is big, and
// holding it to a user route's threshold would burn the latency budget
// because an operator compacted the WAL.
func (s *Server) recordHTTPSLO(endpoint string, status int, dur time.Duration) {
	failed := status >= 500
	s.sloHTTPAvail.Record(!failed)
	if endpoint != checkpointEndpoint {
		s.sloHTTPLat.Observe(dur, failed)
	}
	if t := s.cfg.SLO.LatencyTarget; t > 0 && s.cfg.SLO.LatencyThreshold > 0 && sloTrackedEndpoint(endpoint) {
		s.slos.Add("endpoint:"+endpoint, obs.SLOLatency, t, s.cfg.SLO.LatencyThreshold).
			Observe(dur, failed)
	}
}

// checkpointEndpoint is the route pattern of the operator's WAL-compaction
// trigger.
const checkpointEndpoint = "POST /api/checkpoint"

// sloTrackedEndpoint reports whether the matched route pattern deserves its
// own latency objective.
func sloTrackedEndpoint(pattern string) bool {
	switch pattern {
	case "", "unmatched", "GET /metrics", "GET /healthz", "GET /readyz", checkpointEndpoint:
		return false
	}
	return !strings.Contains(pattern, "/debug/")
}

// handleMetrics serves the whole registry in Prometheus text format, or —
// when the scraper asks for it via Accept — the OpenMetrics exposition,
// which additionally carries trace-ID exemplars on histogram buckets. The
// default stays byte-compatible 0.0.4 text so existing scrapers and parsers
// are untouched.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if obs.AcceptsOpenMetrics(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", obs.OpenMetricsContentType)
		obs.Default.WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.Default.WritePrometheus(w)
}

// handleWorkload serves the workload profiler's snapshot: RED aggregates,
// the recent-query ring, per-fingerprint summaries and the plan-vs-actual
// misestimation table. The workload has its own lock, so the server mutex
// is not taken — the endpoint stays responsive while a query runs.
func (s *Server) handleWorkload(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.workload.Snapshot())
}

// mountDebug exposes net/http/pprof on the server's own mux (the stdlib
// only self-registers on DefaultServeMux), gated behind Config.Debug.
func mountDebug(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}
