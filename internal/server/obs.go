package server

import (
	"net/http"
	"net/http/pprof"
	"strconv"
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
// It also holds, in the one allocation the middleware makes for a request,
// the request's IDs, which its context carries, and the backing of their
// response header values.
type statusWriter struct {
	http.ResponseWriter
	status int
	ids    obs.RequestIDs
	idVals [2]string
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
	// Request-ID middleware: keep a well-formed client-supplied X-Request-ID
	// (so ids propagate through proxies and retries), mint one otherwise.
	// Trace-ID middleware, same contract: accept a well-formed client
	// X-Trace-ID (distributed callers correlate their own traces), mint one
	// otherwise. Both go out on the response, and reach handlers — the
	// records, traces and sessions they open — as one value of the request's
	// context; cached answers overwrite the response's trace ID with the
	// retained filler's (setTraceHeader).
	id := r.Header.Get(headerRequestID)
	if !validRequestID(id) {
		id = newRequestID()
	}
	tid := r.Header.Get(headerTraceID)
	if !validRequestID(tid) {
		tid = obs.NewTraceID()
	}
	sw := &statusWriter{ResponseWriter: w, ids: obs.RequestIDs{Request: id, Trace: tid}, idVals: [2]string{id, tid}}
	h := sw.Header()
	h[headerRequestID], h[headerTraceID] = sw.idVals[0:1:1], sw.idVals[1:2:2]
	r = r.WithContext(obs.WithRequestIDs(r.Context(), &sw.ids))
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
	if tid := sw.Header().Get(headerTraceID); s.oplog.Contains(tid) {
		lat.ObserveExemplar(dur.Seconds(), tid)
	} else {
		lat.Observe(dur.Seconds())
	}
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

// handleWorkload serves the operations log's workload view: RED aggregates,
// the recent-query ring, per-fingerprint summaries and the plan-vs-actual
// misestimation table. The log has its own lock, so the server mutex is not
// taken — the endpoint stays responsive while a query runs.
func (s *Server) handleWorkload(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.oplog.Snapshot())
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
