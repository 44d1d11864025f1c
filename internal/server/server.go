// Package server exposes the RDF-Analytics system over HTTP, mirroring the
// architecture of Fig 6.1: a SPARQL protocol endpoint backed by the
// in-process engine, and a JSON API through which a GUI (or the bundled
// terminal client) drives the interaction model — faceted clicks, the G/Σ
// analytic buttons, answer-frame retrieval, chart rendering, and reloading
// answers as new datasets.
package server

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rdfanalytics/internal/core"
	"rdfanalytics/internal/facet"
	"rdfanalytics/internal/hifun"
	"rdfanalytics/internal/obs"
	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/resilience"
	"rdfanalytics/internal/sparql"
	"rdfanalytics/internal/store"
	"rdfanalytics/internal/viz"
)

// Server wires one graph and per-client interaction sessions to HTTP
// handlers. Clients carry a session id in the X-Session header (or
// ?session= query parameter); requests without one share the default
// session, matching the paper's public-demo semantics. All access is
// serialized by a mutex.
type Server struct {
	mu       sync.Mutex
	graph    *rdf.Graph
	ns       string
	sessions map[string]*sessEntry
	clock    uint64 // logical tick for LRU eviction; advanced under mu
	mux      *http.ServeMux
	cfg      Config
	// traces is the tail-sampling retention store of completed traces:
	// every errored/aborted execution, the slowest-N per fingerprint,
	// latency outliers against the fingerprint's rolling p95, and a
	// probabilistic residual (see obs.TraceStore). It carries its own lock
	// because the /sparql read path runs without s.mu — graph reads are
	// internally locked, so queries execute concurrently, a prerequisite
	// for singleflight collapse.
	traces *obs.TraceStore
	slow   *obs.SlowQueryLog
	// answers/flight/gate are the overload-resilience layer: the answer
	// cache, the singleflight group collapsing identical
	// concurrent queries, and the admission gate (see internal/resilience
	// and resilience.go here).
	answers *resilience.AnswerCache
	flight  resilience.Group
	gate    *resilience.Admission
	// workload aggregates every completed query by structural fingerprint,
	// feeding GET /api/workload and /debug/dashboard.
	workload *obs.Workload
	// slos counts good and total events per objective on /metrics (see
	// internal/obs slo.go); burn rates are an external scraper's business.
	slos *obs.SLOSet
	// sloHTTPAvail/sloHTTPLat are the process-wide HTTP objectives the
	// middleware records into (nil when disabled by config).
	sloHTTPAvail *obs.Objective
	sloHTTPLat   *obs.Objective
	// routeMetrics are the middleware's per-route metric handles.
	routeMetrics routeMetrics
	// draining flips when graceful shutdown begins; /healthz and /readyz
	// answer 503 from then on, and the admission gate stops queueing.
	draining atomic.Bool
	// sweepStop/sweepDone control the idle-session sweeper goroutine
	// (started only when Config.SessionTTL is set; see hardening.go).
	sweepStop chan struct{}
	sweepDone chan struct{}
}

// sessEntry pairs a session with its last-use tick for LRU eviction and
// wall-clock timestamp for idle-TTL expiry.
type sessEntry struct {
	sess     *core.Session
	lastUsed uint64
	lastAt   time.Time
}

// MaxSessions caps concurrently tracked sessions; creating one beyond the
// cap evicts the least-recently-used existing session.
const MaxSessions = 256

// Config carries the optional observability and resource-governance knobs
// of the server.
type Config struct {
	// SlowQuery, when positive, logs queries slower than this threshold
	// (with their plan summary) through SlowQueryLogger.
	SlowQuery time.Duration
	// SlowQueryLogger receives slow-query records; nil means slog.Default().
	SlowQueryLogger *slog.Logger
	// Debug mounts net/http/pprof under /debug/pprof/.
	Debug bool
	// QueryTimeout, when positive, bounds the wall-clock time of every
	// query evaluation (/sparql and /api/run); expiry answers 504 with a
	// structured timeout error.
	QueryTimeout time.Duration
	// MaxBodyBytes caps POST request bodies; 0 means DefaultMaxBodyBytes,
	// negative disables the cap. Oversized bodies answer 413.
	MaxBodyBytes int64
	// SessionTTL, when positive, expires interaction sessions idle longer
	// than this via a background sweeper (see hardening.go).
	SessionTTL time.Duration
	// Limits are the per-query resource budgets applied to every session
	// and protocol-endpoint evaluation.
	Limits sparql.Limits
	// SampleInterval is ignored: the server keeps no time series of its
	// own, and /metrics is the history for a scraper to keep.
	//
	// Deprecated: nothing reads it; it goes once no caller sets it.
	SampleInterval time.Duration
	// SLO configures the declarative objectives whose good/total counters
	// /metrics exposes. The zero value disables all of them.
	SLO SLOConfig
	// CacheBytes bounds the answer cache of the overload-resilience layer
	// (rendered /sparql responses keyed by query text, and runs' answers,
	// invalidated by graph version). 0 disables caching.
	CacheBytes int64
	// MaxConcurrent caps concurrently executing /sparql queries via the
	// admission controller; 0 disables the gate (unbounded concurrency).
	MaxConcurrent int
	// QueueDepth bounds the admission wait queue; beyond it requests are
	// shed with 503 + Retry-After. Only meaningful with MaxConcurrent > 0.
	QueueDepth int
	// StaleWindow bounds stale serving: a request carrying
	// Cache-Control: max-stale[=N] may be answered from a cache entry of an
	// older graph version filled within min(N s, StaleWindow). 0 disables
	// stale serving.
	StaleWindow time.Duration
	// Store, when non-nil, is the durable store backing the served graph:
	// updates are acknowledged only after the store's group-commit sync,
	// POST /api/checkpoint triggers compaction, and rdfa_store_* metrics
	// are exported.
	Store *store.Store
	// TraceRetention tunes the tail-sampling trace store backing
	// GET /api/traces and metric exemplars. The zero value enables
	// retention with the obs package defaults; set Disabled to turn the
	// store off (GET /api/traces then answers 409).
	TraceRetention obs.TraceStoreConfig
}

// SLOConfig declares the service-level objectives. A target of 0 disables
// the corresponding objective; targets are fractions in (0, 1).
type SLOConfig struct {
	// AvailabilityTarget is the good-response ratio for the whole HTTP
	// surface (good = status < 500), e.g. 0.999.
	AvailabilityTarget float64
	// LatencyTarget/LatencyThreshold: LatencyTarget of all HTTP requests
	// must finish within LatencyThreshold (e.g. 0.95 within 250ms). Also
	// applied per endpoint (objectives named "endpoint:<pattern>").
	LatencyTarget    float64
	LatencyThreshold time.Duration
	// ShapeLatencyTarget/ShapeLatencyThreshold: per-query-fingerprint
	// latency objectives, created lazily as shapes appear (objectives
	// named "shape:<fingerprint>").
	ShapeLatencyTarget    float64
	ShapeLatencyThreshold time.Duration
}

// maxBodyBytes resolves the configured POST body cap.
func (c Config) maxBodyBytes() int64 {
	switch {
	case c.MaxBodyBytes == 0:
		return DefaultMaxBodyBytes
	case c.MaxBodyBytes < 0:
		return 0
	default:
		return c.MaxBodyBytes
	}
}

// New builds a server over g with attribute namespace ns and default
// observability settings (no slow-query log, no pprof).
func New(g *rdf.Graph, ns string) *Server {
	return NewWithConfig(g, ns, Config{})
}

// NewWithConfig builds a server with explicit observability settings.
func NewWithConfig(g *rdf.Graph, ns string, cfg Config) *Server {
	s := &Server{graph: g, ns: ns, sessions: map[string]*sessEntry{}, cfg: cfg}
	logger := cfg.SlowQueryLogger
	if logger == nil {
		logger = slog.Default()
	}
	s.slow = obs.NewSlowQueryLog(logger, cfg.SlowQuery, obs.Default)
	s.workload = obs.NewWorkload(256)
	// Tail-sampling trace retention: the outlier test borrows the workload
	// profiler's rolling per-fingerprint p95 as its baseline.
	trCfg := cfg.TraceRetention
	if trCfg.P95 == nil {
		trCfg.P95 = s.workload.P95Seconds
	}
	s.traces = obs.NewTraceStore(trCfg)
	// Runtime and build-info metrics join the registry; the SLO set counts
	// each objective's good and total events there.
	obs.RegisterRuntimeMetrics(obs.Default)
	obs.RegisterBuildInfo(obs.Default)
	s.slos = obs.NewSLOSet(obs.Default)
	if t := cfg.SLO.AvailabilityTarget; t > 0 {
		s.sloHTTPAvail = s.slos.Add("http-availability", obs.SLOAvailability, t, 0)
	}
	if t := cfg.SLO.LatencyTarget; t > 0 && cfg.SLO.LatencyThreshold > 0 {
		s.sloHTTPLat = s.slos.Add("http-latency", obs.SLOLatency, t, cfg.SLO.LatencyThreshold)
	}
	// Overload-resilience layer (see resilience.go): the cache and the gate
	// each degrade to a nil no-op when their knob is off, so the zero Config
	// neither caches nor gates; collapse is always on.
	s.answers = resilience.NewAnswerCache(cfg.CacheBytes, 0,
		func(resilience.Key, int64) { cacheEvictAnswer.Inc() })
	s.gate = resilience.NewAdmission(cfg.MaxConcurrent, cfg.QueueDepth)
	obs.Default.GaugeFunc("rdfa_cache_bytes", func() float64 {
		return float64(s.answers.Bytes())
	})
	obs.Default.GaugeFunc("rdfa_cache_entries", func() float64 {
		return float64(s.answers.Entries())
	})
	obs.Default.GaugeFunc("rdfa_admission_inflight", func() float64 {
		return float64(s.gate.Inflight())
	})
	obs.Default.GaugeFunc("rdfa_admission_waiting", func() float64 {
		return float64(s.gate.Waiting())
	})
	// Graph-level statistics are exported as functions evaluated at
	// scrape time; re-registering (tests build many servers) rebinds the
	// closures to the newest server's graph.
	obs.Default.CounterFunc("rdfa_rdf_index_scans_total", func() float64 {
		return float64(g.IndexScans())
	})
	if cfg.Store != nil {
		registerStoreMetrics(cfg.Store)
	}
	obs.Default.GaugeFunc("rdfa_http_active_sessions", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.sessions))
	})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", s.handleIndex)
	mux.HandleFunc("/sparql", s.handleSPARQL)
	mux.HandleFunc("GET /api/state", s.handleState)
	mux.HandleFunc("POST /api/click/class", s.handleClickClass)
	mux.HandleFunc("POST /api/click/value", s.handleClickValue)
	mux.HandleFunc("POST /api/click/range", s.handleClickRange)
	mux.HandleFunc("POST /api/expand", s.handleExpand)
	mux.HandleFunc("POST /api/pivot", s.handlePivot)
	mux.HandleFunc("POST /api/groupby", s.handleGroupBy)
	mux.HandleFunc("POST /api/aggregate", s.handleAggregate)
	mux.HandleFunc("POST /api/run", s.handleRun)
	mux.HandleFunc("POST /api/load-answer", s.handleLoadAnswer)
	mux.HandleFunc("POST /api/close-level", s.handleCloseLevel)
	mux.HandleFunc("POST /api/back", s.handleBack)
	mux.HandleFunc("POST /api/reset", s.handleReset)
	mux.HandleFunc("GET /api/chart", s.handleChart)
	mux.HandleFunc("GET /api/answer.csv", s.handleAnswerCSV)
	mux.HandleFunc("GET /api/stats", s.handleStats)
	mux.HandleFunc("GET /api/traces", s.handleTraces)
	mux.HandleFunc("GET /api/traces/{id}", s.handleTraceByID)
	mux.HandleFunc("GET /api/workload", s.handleWorkload)
	mux.HandleFunc(checkpointEndpoint, s.handleCheckpoint)
	mux.HandleFunc("GET /healthz", s.handleProbe)
	mux.HandleFunc("GET /readyz", s.handleProbe)
	mux.HandleFunc("GET /debug/dashboard", s.handleDashboard)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /ui", s.handleUI)
	if cfg.Debug {
		mountDebug(mux)
	}
	s.mux = mux
	if cfg.SessionTTL > 0 {
		s.startSweeper(cfg.SessionTTL)
	}
	return s
}

// sessionFor returns (creating if needed) the session for the request's
// X-Session header / ?session= parameter, bumping its LRU tick. When the
// session table is full, the least-recently-used session is evicted.
// Callers must hold s.mu.
func (s *Server) sessionFor(r *http.Request) *core.Session {
	id := r.Header.Get("X-Session")
	if id == "" {
		id = r.URL.Query().Get("session")
	}
	s.clock++
	if e, ok := s.sessions[id]; ok {
		e.lastUsed = s.clock
		e.lastAt = time.Now()
		return e.sess
	}
	if len(s.sessions) >= MaxSessions {
		var victim string
		oldest := uint64(1<<64 - 1)
		for k, e := range s.sessions {
			if e.lastUsed < oldest {
				oldest, victim = e.lastUsed, k
			}
		}
		delete(s.sessions, victim)
		sessionsEvicted.Inc()
	}
	sess := core.NewSession(s.graph, s.ns)
	sess.SetLimits(s.cfg.Limits)
	if s.cfg.Store != nil {
		sess.SetDurability(s.cfg.Store.Sync)
	}
	s.sessions[id] = &sessEntry{sess: sess, lastUsed: s.clock, lastAt: time.Now()}
	sessionsCreated.Inc()
	return sess
}

// ---- term and path JSON codecs ----

// TermJSON is the wire form of an RDF term in a request.
type TermJSON struct {
	Kind     string `json:"kind"` // iri | blank | literal
	Value    string `json:"value"`
	Datatype string `json:"datatype,omitempty"`
	Lang     string `json:"lang,omitempty"`
}

func fromTermJSON(j TermJSON) (rdf.Term, error) {
	switch j.Kind {
	case "iri":
		return rdf.NewIRI(j.Value), nil
	case "blank":
		return rdf.NewBlank(j.Value), nil
	case "literal", "":
		if j.Lang != "" {
			return rdf.NewLangString(j.Value, j.Lang), nil
		}
		if j.Datatype != "" {
			return rdf.NewTyped(j.Value, j.Datatype), nil
		}
		return rdf.NewString(j.Value), nil
	default:
		return rdf.Term{}, fmt.Errorf("unknown term kind %q", j.Kind)
	}
}

// StepJSON is the wire form of a facet path step.
type StepJSON struct {
	P       string `json:"p"`
	Inverse bool   `json:"inverse,omitempty"`
}

func fromPathJSON(steps []StepJSON) facet.Path {
	out := make(facet.Path, len(steps))
	for i, s := range steps {
		out[i] = facet.PathStep{P: rdf.NewIRI(s.P), Inverse: s.Inverse}
	}
	return out
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// writeJSONBody encodes v without touching headers or status (callers have
// already written them).
func writeJSONBody(w http.ResponseWriter, v any) {
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	// A body rejected by http.MaxBytesReader surfaces wherever the handler
	// happened to read it; the taxonomy status wins over the caller's.
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		code = http.StatusRequestEntityTooLarge
	}
	body := map[string]string{"error": err.Error()}
	// The middleware stamped the request id on the response headers before
	// the handler ran; echoing it in the body lets clients quote it when
	// reporting failures.
	if id := w.Header().Get(headerRequestID); id != "" {
		body["request_id"] = id
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(body)
}

func decode[T any](r *http.Request, into *T) error {
	defer r.Body.Close()
	return json.NewDecoder(r.Body).Decode(into)
}

// ---- SPARQL protocol ----

func (s *Server) handleSPARQL(w http.ResponseWriter, r *http.Request) {
	var query string
	switch r.Method {
	case http.MethodGet:
		query = r.URL.Query().Get("query")
	case http.MethodPost:
		ct := r.Header.Get("Content-Type")
		switch {
		case strings.HasPrefix(ct, "application/sparql-query"):
			buf := new(strings.Builder)
			if _, err := copyBody(buf, r); err != nil {
				httpError(w, http.StatusBadRequest, err)
				return
			}
			query = buf.String()
		case strings.HasPrefix(ct, "application/sparql-update"):
			buf := new(strings.Builder)
			if _, err := copyBody(buf, r); err != nil {
				httpError(w, http.StatusBadRequest, err)
				return
			}
			s.execUpdate(w, r, buf.String())
			return
		default:
			if err := r.ParseForm(); err != nil {
				httpError(w, http.StatusBadRequest, err)
				return
			}
			if upd := r.PostForm.Get("update"); upd != "" {
				s.execUpdate(w, r, upd)
				return
			}
			query = r.PostForm.Get("query")
		}
	default:
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s", r.Method))
		return
	}
	if strings.TrimSpace(query) == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("missing query parameter"))
		return
	}
	// The read path deliberately does NOT hold s.mu: graph reads are
	// internally locked (rdf.Graph is an RWMutex), and the trace store,
	// slow-query log, workload profiler and SLO set all carry their own
	// locks. Running queries concurrently is what lets the singleflight
	// group collapse a thundering herd into one execution (resilience.go).
	//
	// A repeated read is a lookup: the answer cache is keyed by the raw text,
	// so a hit is served before the text is parsed (every stored text parsed
	// once already). A SELECT asked for as CSV bypasses the cache, and only
	// the parse tells a SELECT from an ASK, so that request looks up after it.
	start := time.Now()
	key := resilience.Key{Text: query}
	rec := sparqlRecord(r, query)
	csv := strings.Contains(r.Header.Get("Accept"), "text/csv")
	if !csv && s.serveHit(w, r, key, rec, start) != nil {
		return
	}
	q, err := sparql.Parse(query)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	rec.Shape = sparql.Fingerprint(q)
	rec.FingerprintID = sparql.FingerprintID(rec.Shape)
	switch {
	case q.Form == sparql.FormConstruct || q.Form == sparql.FormDescribe:
		s.serveGraphQuery(w, ctx, q, rec)
	case csv && q.Form == sparql.FormSelect:
		s.execSelectCSV(w, ctx, q, rec)
	case csv: // an ASK answers JSON whatever the request accepts
		s.serveCached(w, r, ctx, key, rec, s.queryExec(q))
	default:
		s.serveMiss(w, ctx, key, rec, s.queryExec(q), start)
	}
}

// updateShapes fingerprint updates by operation kind, the way checkpoints
// use the constant shape "checkpoint": an update's text is mostly data, and
// a text fingerprint made every distinct INSERT DATA the first of its shape
// — retained as slowest, flooding the trace store. The raw text stays in
// the record's Query.
var updateShapes = [...]string{
	sparql.UpdateInsertData:  "update insert_data",
	sparql.UpdateDeleteData:  "update delete_data",
	sparql.UpdateDeleteWhere: "update delete_where",
	sparql.UpdateModify:      "update modify",
	sparql.UpdateClear:       "update clear",
}

// execUpdate applies a SPARQL update and reports the change counts. No
// cache is notified: everything derived from the graph — the answer cache
// and the sessions' markers included — compares Graph.Version() when it is
// next read.
func (s *Server) execUpdate(w http.ResponseWriter, r *http.Request, src string) {
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	tr := obs.NewTrace("update")
	tr.SetID(obs.TraceIDFrom(ctx))
	// An unparseable update keeps the generic shape "update".
	rec := obs.QueryRecord{Kind: "update", Shape: "update", Query: src, RequestID: requestID(r), Trace: tr}
	if rec.RequestID != "" {
		tr.Root().SetAttr("request_id", rec.RequestID)
	}
	var updErr error
	defer func() {
		tr.Finish()
		rec.FingerprintID = sparql.FingerprintID(rec.Shape)
		rec.Duration = time.Since(start)
		s.record(rec, updErr, nil)
	}()
	es := tr.Root().StartChild("exec")
	var res sparql.UpdateResult
	u, err := sparql.ParseUpdate(src)
	if err == nil {
		rec.Shape = updateShapes[u.Kind]
		res, err = sparql.ApplyUpdateCtx(ctx, s.graph, u)
	}
	es.Finish()
	if err != nil {
		updErr = err
		code := abortStatus(err, http.StatusBadRequest)
		if code == http.StatusBadRequest {
			httpError(w, code, err)
		} else {
			queryError(w, err)
		}
		return
	}
	rec.Rows = res.Inserted + res.Deleted
	tr.Root().SetAttr("inserted", res.Inserted)
	tr.Root().SetAttr("deleted", res.Deleted)
	// Group commit: the mutations were journaled as they applied; fsync the
	// WAL before acknowledging so an acked update survives kill -9.
	if s.cfg.Store != nil {
		gc := tr.Root().StartChild("group_commit")
		err := s.cfg.Store.Sync()
		gc.Finish()
		if err != nil {
			updErr = err
			httpError(w, http.StatusInternalServerError,
				fmt.Errorf("update applied but not durable: %w", err))
			return
		}
	}
	writeJSON(w, map[string]int{"inserted": res.Inserted, "deleted": res.Deleted})
}

func copyBody(dst *strings.Builder, r *http.Request) (int64, error) {
	defer r.Body.Close()
	buf := make([]byte, 4096)
	var n int64
	for {
		m, err := r.Body.Read(buf)
		dst.Write(buf[:m])
		n += int64(m)
		if err != nil {
			if err.Error() == "EOF" {
				return n, nil
			}
			return n, err
		}
	}
}

// ---- interaction API ----

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	writeState(w, s.sessionFor(r))
}

func (s *Server) handleClickClass(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Class string `json:"class"`
	}
	if err := decode(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if req.Class == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("class required"))
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessionFor(r)
	sess.ClickClass(rdf.NewIRI(req.Class))
	writeState(w, sess)
}

func (s *Server) handleClickValue(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Path   []StepJSON `json:"path"`
		Value  *TermJSON  `json:"value"`
		Values []TermJSON `json:"values"`
	}
	if err := decode(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	path := fromPathJSON(req.Path)
	if err := facet.CheckPath(path); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessionFor(r)
	switch {
	case len(req.Values) > 0:
		vs := make([]rdf.Term, 0, len(req.Values))
		for _, j := range req.Values {
			t, err := fromTermJSON(j)
			if err != nil {
				httpError(w, http.StatusBadRequest, err)
				return
			}
			vs = append(vs, t)
		}
		sess.ClickValueSet(path, vs)
	case req.Value != nil:
		t, err := fromTermJSON(*req.Value)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		sess.ClickValue(path, t)
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("value or values required"))
		return
	}
	writeState(w, sess)
}

func (s *Server) handleClickRange(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Path  []StepJSON `json:"path"`
		Op    string     `json:"op"`
		Value TermJSON   `json:"value"`
	}
	if err := decode(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if !facet.ValidRangeOp(req.Op) {
		httpError(w, http.StatusBadRequest, fmt.Errorf("unknown range operator %q", req.Op))
		return
	}
	path := fromPathJSON(req.Path)
	if err := facet.CheckPath(path); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	t, err := fromTermJSON(req.Value)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessionFor(r)
	sess.ClickRange(path, req.Op, t)
	writeState(w, sess)
}

func (s *Server) handleExpand(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Path []StepJSON `json:"path"`
	}
	if err := decode(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessionFor(r)
	writeValues(w, sess.Model().ExpandPath(sess.State(), fromPathJSON(req.Path)))
}

func (s *Server) handlePivot(w http.ResponseWriter, r *http.Request) {
	var req struct {
		P       string `json:"p"`
		Inverse bool   `json:"inverse,omitempty"`
	}
	if err := decode(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if req.P == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("property required"))
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessionFor(r)
	sess.SwitchFocus(facet.PathStep{P: rdf.NewIRI(req.P), Inverse: req.Inverse})
	writeState(w, sess)
}

func (s *Server) handleGroupBy(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Path   []StepJSON `json:"path"`
		Derive string     `json:"derive,omitempty"`
	}
	if err := decode(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	spec := core.GroupSpec{Path: fromPathJSON(req.Path), Derive: req.Derive}
	if err := spec.Check(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessionFor(r)
	sess.ClickGroupBy(spec)
	writeState(w, sess)
}

func (s *Server) handleAggregate(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Path   []StepJSON `json:"path"`
		Derive string     `json:"derive,omitempty"`
		Op     string     `json:"op"`
	}
	if err := decode(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if !hifun.ValidOp(req.Op) {
		httpError(w, http.StatusBadRequest, fmt.Errorf("unknown aggregate %q", req.Op))
		return
	}
	measure := core.MeasureSpec{Path: fromPathJSON(req.Path), Derive: req.Derive}
	if err := measure.Check(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessionFor(r)
	sess.ClickAggregate(measure, hifun.Operation{Op: hifun.AggOp(strings.ToUpper(req.Op))})
	writeState(w, sess)
}

// handleRun answers the Σ click: the session's analytic query, translated
// to SPARQL and evaluated. At the base level a run is a query like any
// other, served through the one cached read path (serveCached) under a key
// of the session's making; a reloaded level queries its session's own copy
// of an answer, which no other session shares, so it bypasses the cache.
// Either way the session adopts the frame that was served.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessionFor(r)
	run, err := sess.PrepareRun()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	hq := run.Query.String()
	// A run fingerprints by its generated SPARQL, which carries the full
	// shape; the HIFUN text stands in until that exists, and on failure.
	rec := obs.QueryRecord{Kind: "analytics", Query: hq, Shape: "analytics " + hq, RequestID: requestID(r), TraceID: traceIDOf(r)}
	rec.FingerprintID = sparql.FingerprintID(rec.Shape)
	exec := func(execCtx context.Context, rec *obs.QueryRecord) (*resilience.Answer, *sparql.Profile, error) {
		prof := sparql.NewProfile("run_analytics")
		frame, err := run.Exec(execCtx, rec.Trace, prof)
		if err != nil {
			return nil, prof, err
		}
		rec.Shape, rec.Rows = sparql.FingerprintQuery(frame.SPARQL), len(frame.Rows)
		rec.FingerprintID = sparql.FingerprintID(rec.Shape)
		return &resilience.Answer{Body: answerBody(frame, hq), ContentType: "application/json", Frame: frame}, prof, nil
	}
	if sess.Depth() == 1 {
		if ans := s.serveCached(w, r, ctx, resilience.Key{Namespace: "analytics", Text: run.Key}, rec, exec); ans != nil {
			sess.SetAnswer(ans.Frame)
		}
		return
	}
	cacheBypass.Inc()
	w.Header().Set("X-Cache", "bypass")
	rec.Cache = "bypass"
	var ans *resilience.Answer
	release, err := s.guarded(ctx, rec, func(rec *obs.QueryRecord) (prof *sparql.Profile, err error) {
		ans, prof, err = exec(ctx, rec)
		return prof, err
	})
	release()
	if err != nil {
		execError(w, err)
		return
	}
	sess.SetAnswer(ans.Frame)
	w.Header().Set("Content-Type", ans.ContentType)
	w.Write(ans.Body)
}

func (s *Server) handleLoadAnswer(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessionFor(r)
	if err := sess.LoadAnswerAsDataset(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeState(w, sess)
}

func (s *Server) handleCloseLevel(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessionFor(r)
	if err := sess.CloseLevel(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeState(w, sess)
}

func (s *Server) handleBack(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessionFor(r)
	if err := sess.Back(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeState(w, sess)
}

func (s *Server) handleReset(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessionFor(r)
	sess.Reset()
	writeState(w, sess)
}

func (s *Server) handleChart(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ans := s.sessionFor(r).Answer()
	if ans == nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("no answer yet; POST /api/run first"))
		return
	}
	measure := 0
	if m := r.URL.Query().Get("measure"); m != "" {
		n, err := strconv.Atoi(m)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("measure %q is not an integer", m))
			return
		}
		measure = n
	}
	series, err := viz.AnswerSeries(ans, measure)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	fmt.Fprint(w, viz.ChartSVG(r.URL.Query().Get("type"), series))
}

// handleAnswerCSV downloads the current Answer Frame as CSV.
func (s *Server) handleAnswerCSV(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ans := s.sessionFor(r).Answer()
	if ans == nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("no answer yet; POST /api/run first"))
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	w.Header().Set("Content-Disposition", `attachment; filename="answer.csv"`)
	cw := csv.NewWriter(w)
	cw.Write(ans.Columns())
	for _, row := range ans.Rows {
		rec := make([]string, len(row))
		for i, t := range row {
			rec[i] = t.Value
		}
		cw.Write(rec)
	}
	cw.Flush()
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.graph.Stats()
	writeJSON(w, map[string]int{
		"triples": st.Triples, "terms": st.Terms, "subjects": st.Subjects,
		"predicates": st.Predicates, "classes": st.Classes, "literals": st.Literals,
	})
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, indexHTML)
}

func (s *Server) handleUI(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, uiHTML)
}

const indexHTML = `<!doctype html>
<html><head><title>RDF-Analytics</title></head>
<body style="font-family: sans-serif; max-width: 48rem; margin: 2rem auto">
<h1>RDF-Analytics</h1>
<p>Interactive analytics over RDF knowledge graphs (EDBT 2023 reproduction).</p>
<p><strong><a href="/ui">Open the interactive GUI</a></strong></p>
<ul>
<li><code>GET /api/state</code> — current faceted-analytics state</li>
<li><code>POST /api/click/class|value|range</code> — faceted transitions</li>
<li><code>POST /api/groupby</code>, <code>POST /api/aggregate</code> — the G and Σ buttons</li>
<li><code>POST /api/run</code> — translate HIFUN → SPARQL, evaluate, return the Answer Frame</li>
<li><code>POST /api/load-answer</code> — explore the answer with faceted search (HAVING / nesting)</li>
<li><code>GET /api/chart?type=bar|pie|column|line|spiral</code> — SVG charts of the answer</li>
<li><code>GET|POST /sparql?query=…</code> — SPARQL 1.1 protocol endpoint</li>
</ul>
</body></html>
`
