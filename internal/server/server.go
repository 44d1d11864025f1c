// Package server exposes the RDF-Analytics system over HTTP, mirroring the
// architecture of Fig 6.1: a SPARQL protocol endpoint backed by the
// in-process engine, and a JSON API through which a GUI (or the bundled
// terminal client) drives the interaction model — faceted clicks, the G/Σ
// analytic buttons, answer-frame retrieval, chart rendering, and reloading
// answers as new datasets.
package server

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
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
// session, matching the paper's public-demo semantics. Session access is
// serialized by a mutex; /sparql reads and the operator reads take none.
type Server struct {
	mu       sync.Mutex
	graph    *rdf.Graph
	ns       string
	sessions map[string]*sessEntry
	// recency orders the sessions' entries, most recently used at the
	// front: eviction takes the back, the idle sweep walks from it.
	recency list.List
	// active is len(sessions), kept where sessions come and go so operator
	// reads (/metrics, /api/stats, the dashboard) never wait on mu.
	active atomic.Int64
	mux    *http.ServeMux
	cfg    Config
	// oplog is the operations log every finished operation is recorded in
	// (see record): the workload view, trace retention and the slow-query
	// log. It carries its own lock because the /sparql read path runs
	// without s.mu — graph reads are internally locked, so queries execute
	// concurrently, a prerequisite for singleflight collapse.
	oplog *obs.OpLog
	// answers/flight/gate are the overload-resilience layer: the answer
	// cache, the singleflight group collapsing identical
	// concurrent queries, and the admission gate (see internal/resilience
	// and resilience.go here).
	answers *resilience.AnswerCache
	flight  resilience.Group
	gate    *resilience.Admission
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

// sessEntry is a session with its place in the recency order and its last
// use for idle-TTL expiry.
type sessEntry struct {
	id     string
	sess   *core.Session
	lastAt time.Time
	elem   *list.Element
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
	// SLO is ignored: an objective's good/total ratio is read off
	// rdfa_http_requests_total and rdfa_http_request_seconds_bucket by the
	// scraper (DESIGN.md §6.3).
	//
	// Deprecated: nothing reads it; it goes once no caller sets it.
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
	// TraceRetention tunes the operations log's trace retention, which
	// backs GET /api/traces and metric exemplars. The zero value enables
	// retention with the obs package defaults; Disabled turns retention off
	// (GET /api/traces then answers 409) and leaves the workload view and
	// the slow-query log on.
	TraceRetention obs.TraceStoreConfig
}

// SLOConfig is the type of the ignored Config.SLO.
//
// Deprecated: the server keeps no objectives; it goes with Config.SLO.
type SLOConfig struct {
	AvailabilityTarget    float64
	LatencyTarget         float64
	LatencyThreshold      time.Duration
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
	s.oplog = obs.NewOpLog(cfg.TraceRetention, cfg.SlowQuery, cfg.SlowQueryLogger)
	// Runtime and build-info metrics join the registry.
	obs.RegisterRuntimeMetrics(obs.Default)
	obs.RegisterBuildInfo(obs.Default)
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
		return float64(s.active.Load())
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
	mux.HandleFunc("POST /api/checkpoint", s.handleCheckpoint)
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
// X-Session header / ?session= parameter, moving it to the front of the
// recency order. When the session table is full, the least recently used
// session is evicted. Callers must hold s.mu.
func (s *Server) sessionFor(r *http.Request) *core.Session {
	id := r.Header.Get("X-Session")
	if id == "" {
		id = r.URL.Query().Get("session")
	}
	if e, ok := s.sessions[id]; ok {
		e.lastAt = time.Now()
		s.recency.MoveToFront(e.elem)
		return e.sess
	}
	if len(s.sessions) >= MaxSessions {
		s.dropSession(s.recency.Back().Value.(*sessEntry))
		sessionsEvicted.Inc()
	}
	sess := core.NewSession(s.graph, s.ns)
	sess.SetLimits(s.cfg.Limits)
	if s.cfg.Store != nil {
		sess.SetDurability(s.cfg.Store.Sync)
	}
	e := &sessEntry{id: id, sess: sess, lastAt: time.Now()}
	e.elem = s.recency.PushFront(e)
	s.sessions[id] = e
	s.active.Store(int64(len(s.sessions)))
	sessionsCreated.Inc()
	return sess
}

// dropSession forgets a session. Callers must hold s.mu.
func (s *Server) dropSession(e *sessEntry) {
	s.recency.Remove(e.elem)
	delete(s.sessions, e.id)
	s.active.Store(int64(len(s.sessions)))
}

func writeJSON(w http.ResponseWriter, v any) {
	setHeader(w, "Content-Type", "application/json")
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
	setHeader(w, "Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(body)
}

func decode(r *http.Request, into any) error {
	defer r.Body.Close()
	return json.NewDecoder(r.Body).Decode(into)
}

// ---- SPARQL protocol ----

func (s *Server) handleSPARQL(w http.ResponseWriter, r *http.Request) {
	var query string
	switch r.Method {
	case http.MethodGet:
		query = queryParam(r.URL.RawQuery, "query")
	case http.MethodPost:
		ct := r.Header.Get("Content-Type")
		update := strings.HasPrefix(ct, "application/sparql-update")
		switch {
		case update || strings.HasPrefix(ct, "application/sparql-query"):
			body, err := io.ReadAll(r.Body)
			if err != nil {
				httpError(w, http.StatusBadRequest, err) // 413 past the body cap
				return
			}
			if update {
				s.execUpdate(w, r, string(body))
				return
			}
			query = string(body)
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
	// internally locked (rdf.Graph is an RWMutex), and the operations log
	// and the SLO set carry their own locks. Running queries concurrently is
	// what lets the singleflight group collapse a thundering herd into one
	// execution (resilience.go).
	//
	// A repeated read is a lookup: the answer cache is keyed by the raw text,
	// so a hit is served before the text is parsed (every stored text parsed
	// once already). A SELECT asked for as CSV bypasses the cache, and only
	// the parse tells a SELECT from an ASK, so that request looks up after it.
	start := time.Now()
	key := resilience.Key{Text: query}
	// The record's shape and fingerprint come from the parse on a miss and
	// from the answer on a hit.
	rec := opRecord(r, "sparql")
	rec.Query = query
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
	case csv && s.serveHit(w, r, key, rec, start) != nil:
		// An ASK answers JSON whatever the request accepts, a cached one too.
	default:
		s.serveMiss(w, ctx, key, sparql.ReadSet(q), rec, s.queryExec(q), start)
	}
}

// queryParam returns the first value of key in a URL's raw query, as
// URL.Query().Get(key) would, without building the values of every key.
func queryParam(raw, key string) string {
	for raw != "" {
		var kv string
		kv, raw, _ = strings.Cut(raw, "&")
		if strings.Contains(kv, ";") {
			continue
		}
		k, v, _ := strings.Cut(kv, "=")
		if k != key {
			if k, err := url.QueryUnescape(k); err != nil || k != key {
				continue
			}
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
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
// cache is notified: everything derived from the graph checks, when it is
// next read, whether a predicate it read has changed since — a cached answer
// its query's predicates (Graph.ReadVersion), a session level all of them
// (Graph.Version).
func (s *Server) execUpdate(w http.ResponseWriter, r *http.Request, src string) {
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	s.mu.Lock()
	defer s.mu.Unlock()
	// An unparseable update keeps the generic shape "update".
	rec := opRecord(r, "update")
	rec.Shape, rec.Query = "update", src
	var res sparql.UpdateResult
	applied := false
	err := s.operation("update", rec, func(rec *obs.QueryRecord) (*sparql.Profile, error) {
		root := rec.Trace.Root()
		es := root.StartChild("exec")
		u, err := sparql.ParseUpdate(src)
		if err == nil {
			rec.Shape = updateShapes[u.Kind]
			res, err = sparql.ApplyUpdateCtx(ctx, s.graph, u)
		}
		rec.FingerprintID = sparql.FingerprintID(rec.Shape)
		es.Finish()
		if err != nil {
			return nil, err
		}
		applied = true
		rec.Rows = res.Inserted + res.Deleted
		root.SetAttr("inserted", res.Inserted)
		root.SetAttr("deleted", res.Deleted)
		if s.cfg.Store == nil {
			return nil, nil
		}
		// Group commit: the mutations were journaled as they applied; fsync
		// the WAL before acknowledging so an acked update survives kill -9.
		gc := root.StartChild("group_commit")
		defer gc.Finish()
		return nil, s.cfg.Store.Sync()
	})
	switch {
	case err == nil:
		writeJSON(w, map[string]int{"inserted": res.Inserted, "deleted": res.Deleted})
	case applied:
		httpError(w, http.StatusInternalServerError, fmt.Errorf("update applied but not durable: %w", err))
	case abortStatus(err, http.StatusBadRequest) == http.StatusBadRequest:
		httpError(w, http.StatusBadRequest, err)
	default:
		queryError(w, err)
	}
}

// ---- interaction API ----

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	writeState(w, s.sessionFor(r))
}

// click decodes the request into req, makes the click do on the request's
// session and answers the state it leads to. The session checks every click:
// one it refuses answers 400 and changes nothing.
func (s *Server) click(w http.ResponseWriter, r *http.Request, req any, do func(*core.Session) error) {
	if err := decode(r, req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessionFor(r)
	if err := do(sess); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeState(w, sess)
}

func (s *Server) handleClickClass(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Class string `json:"class"`
	}
	s.click(w, r, &req, func(sess *core.Session) error { return sess.ClickClass(rdf.NewIRI(req.Class)) })
}

func (s *Server) handleClickValue(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Path   []core.StepJSON `json:"path"`
		Value  *core.TermJSON  `json:"value"`
		Values []core.TermJSON `json:"values"`
	}
	s.click(w, r, &req, func(sess *core.Session) error {
		if req.Value != nil && len(req.Values) == 0 {
			t, err := req.Value.Term()
			if err != nil {
				return err
			}
			return sess.ClickValue(core.PathOf(req.Path), t)
		}
		vs := make([]rdf.Term, len(req.Values))
		for i, j := range req.Values {
			var err error
			if vs[i], err = j.Term(); err != nil {
				return err
			}
		}
		return sess.ClickValueSet(core.PathOf(req.Path), vs)
	})
}

func (s *Server) handleClickRange(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Path  []core.StepJSON `json:"path"`
		Op    string          `json:"op"`
		Value core.TermJSON   `json:"value"`
	}
	s.click(w, r, &req, func(sess *core.Session) error {
		t, err := req.Value.Term()
		if err != nil {
			return err
		}
		return sess.ClickRange(core.PathOf(req.Path), req.Op, t)
	})
}

func (s *Server) handleExpand(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Path []core.StepJSON `json:"path"`
	}
	if err := decode(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessionFor(r)
	m := sess.Model()
	writeValues(w, m.G, m.ExpandPath(sess.State(), core.PathOf(req.Path)))
}

func (s *Server) handlePivot(w http.ResponseWriter, r *http.Request) {
	var req core.StepJSON
	s.click(w, r, &req, func(sess *core.Session) error {
		return sess.SwitchFocus(facet.PathStep{P: rdf.NewIRI(req.P), Inverse: req.Inverse})
	})
}

func (s *Server) handleGroupBy(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Path   []core.StepJSON `json:"path"`
		Derive string          `json:"derive,omitempty"`
	}
	s.click(w, r, &req, func(sess *core.Session) error {
		return sess.ClickGroupBy(core.GroupSpec{Path: core.PathOf(req.Path), Derive: req.Derive})
	})
}

func (s *Server) handleAggregate(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Path   []core.StepJSON `json:"path"`
		Derive string          `json:"derive,omitempty"`
		Op     string          `json:"op"`
	}
	s.click(w, r, &req, func(sess *core.Session) error {
		return sess.ClickAggregate(core.MeasureSpec{Path: core.PathOf(req.Path), Derive: req.Derive},
			hifun.Operation{Op: hifun.AggOp(strings.ToUpper(req.Op))})
	})
}

// handleRun answers the Σ click: the session's analytic query, translated
// to SPARQL and evaluated. At the base level a run is a query like any
// other, served through the one cached read path (serveHit, serveMiss) under
// a key of the session's making; a reloaded level queries its session's own
// copy of an answer, which no other session shares, so it bypasses the cache
// and streams. Either way the session adopts the frame that was served.
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
	start := time.Now()
	hq := run.Query.String()
	rec := opRecord(r, "analytics")
	rec.Query = hq
	key := resilience.Key{Namespace: "analytics", Text: run.Key}
	if sess.Depth() == 1 {
		if ans := s.serveHit(w, r, key, rec, start); ans != nil {
			sess.SetAnswer(ans.Frame)
			return
		}
	}
	// A miss translates the run and parses its SPARQL, once: the shape, the
	// read set and the execution all come from that one parse. The HIFUN
	// text stands in for the shape when the translation fails.
	q, err := run.Prepare()
	if err != nil {
		rec.Shape = "analytics " + hq
		rec.FingerprintID = sparql.FingerprintID(rec.Shape)
		s.record(rec, err, nil)
		queryError(w, err)
		return
	}
	rec.Shape = sparql.Fingerprint(q)
	rec.FingerprintID = sparql.FingerprintID(rec.Shape)
	exec := func(execCtx context.Context, rec *obs.QueryRecord) (*resilience.Answer, *sparql.Profile, error) {
		prof := sparql.NewProfile("run_analytics")
		frame, err := run.Exec(execCtx, rec.Trace, prof)
		if err != nil {
			return nil, prof, err
		}
		rec.Rows = frame.Table.Len()
		return &resilience.Answer{ContentType: "application/json", Frame: frame, Source: newFrameBody(frame, hq)}, prof, nil
	}
	if sess.Depth() == 1 {
		if ans := s.serveMiss(w, ctx, key, sparql.ReadSet(q), rec, exec, start); ans != nil {
			sess.SetAnswer(ans.Frame)
		}
		return
	}
	cacheBypass.Inc()
	setHeader(w, "X-Cache", "bypass")
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
	writeAnswer(w, ans)
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
	setHeader(w, "Content-Type", "text/csv")
	w.Header().Set("Content-Disposition", `attachment; filename="answer.csv"`)
	ans.Table.WriteCSV(w)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
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
