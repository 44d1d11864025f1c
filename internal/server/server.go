// Package server exposes the RDF-Analytics system over HTTP, mirroring the
// architecture of Fig 6.1: a SPARQL protocol endpoint backed by the
// in-process engine, and a JSON API through which a GUI (or the bundled
// terminal client) drives the interaction model — faceted clicks, the G/Σ
// analytic buttons, answer-frame retrieval, chart rendering, and reloading
// answers as new datasets.
package server

import (
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
	// answers/flight/gate/breakers are the overload-resilience layer: the
	// fingerprint answer cache, the singleflight group collapsing identical
	// concurrent queries, the admission controller, and the per-fingerprint
	// circuit breaker (see internal/resilience and resilience.go here).
	answers  *resilience.AnswerCache
	flight   *resilience.Group
	gate     *resilience.Admission
	breakers *resilience.Breakers
	// workload aggregates every completed query by structural fingerprint,
	// feeding GET /api/workload and /debug/dashboard.
	workload *obs.Workload
	// feedback is the cost-based planner's execution-feedback store: every
	// profiled query seeds it with per-scan actual cardinalities, and
	// replans of the same fingerprint (interactive sessions re-run the same
	// shapes every facet click) plan with those actuals instead of cold
	// graph-count estimates.
	feedback *sparql.FeedbackStore
	// sampler/slos/alerts are the telemetry time-series engine: the sampler
	// scrapes every metric into bounded ring buffers, the SLO set evaluates
	// multi-window burn rates on each tick, and the alert log records the
	// firing/resolved transitions (see internal/obs timeseries.go, slo.go,
	// alerts.go).
	sampler *obs.Sampler
	slos    *obs.SLOSet
	alerts  *obs.AlertLog
	// sloHTTPAvail/sloHTTPLat are the process-wide HTTP objectives the
	// middleware records into (nil when disabled by config).
	sloHTTPAvail *obs.Objective
	sloHTTPLat   *obs.Objective
	// draining flips when graceful shutdown begins; /healthz and /readyz
	// answer 503 from then on.
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
	// SampleInterval starts the background telemetry sampler at this
	// period. Zero leaves the sampler passive (no goroutine): endpoints
	// still work and tests drive ticks manually.
	SampleInterval time.Duration
	// SLO configures the declarative objectives the burn-rate evaluator
	// watches. The zero value disables all of them.
	SLO SLOConfig
	// CacheBytes bounds the fingerprint answer cache of the overload-
	// resilience layer (rendered /sparql responses, keyed by fingerprint ×
	// query text, invalidated by graph version). 0 disables caching.
	CacheBytes int64
	// NegativeTTL bounds how long a remembered parse error is served from
	// the negative cache; 0 takes resilience.DefaultNegativeTTL.
	NegativeTTL time.Duration
	// MaxConcurrent caps concurrently executing /sparql queries via the
	// admission controller; 0 disables the gate (unbounded concurrency).
	MaxConcurrent int
	// QueueDepth bounds the admission wait queue; beyond it requests are
	// shed with 503 + Retry-After. Only meaningful with MaxConcurrent > 0.
	QueueDepth int
	// StaleWindow bounds degraded-mode stale serving: while degraded,
	// cache entries from older graph versions are served if filled within
	// this window. 0 disables stale serving.
	StaleWindow time.Duration
	// NoCollapse disables the singleflight group that collapses concurrent
	// identical queries into one execution.
	NoCollapse bool
	// DegradedShedCost is the per-shape EWMA cost above which uncached
	// query shapes are shed while degraded; 0 takes 250ms.
	DegradedShedCost time.Duration
	// BreakerThreshold/BreakerCooldown tune the per-fingerprint circuit
	// breaker (consecutive budget/timeout aborts to open; reject window
	// before the half-open probe). Zero values take the resilience-package
	// defaults. The breaker is active whenever the resilience layer is
	// (CacheBytes > 0, MaxConcurrent > 0, or BreakerThreshold set).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Store, when non-nil, is the durable store backing the served graph:
	// updates are acknowledged only after the store's group-commit sync,
	// POST /api/checkpoint triggers compaction, and rdfa_store_* metrics
	// are exported.
	Store *store.Store
	// TraceRetention tunes the tail-sampling trace store backing
	// GET /api/traces and metric exemplars. The zero value enables
	// retention with the obs package defaults; set Disabled to turn the
	// store off (trace-dependent surfaces degrade to the last-trace
	// fallback).
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
	// Burn overrides the evaluation windows/factors; zero fields take
	// obs.DefaultBurnConfig.
	Burn obs.BurnConfig
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
	s.feedback = sparql.NewFeedbackStore()
	// Tail-sampling trace retention: the outlier test borrows the workload
	// profiler's rolling per-fingerprint p95 as its baseline.
	trCfg := cfg.TraceRetention
	if trCfg.P95 == nil {
		trCfg.P95 = s.workload.P95Seconds
	}
	s.traces = obs.NewTraceStore(trCfg)
	// Telemetry engine: runtime + build-info metrics feed the registry, the
	// sampler retains everything in ring buffers, and the SLO set evaluates
	// burn rates on every tick.
	obs.RegisterRuntimeMetrics(obs.Default)
	obs.RegisterBuildInfo(obs.Default)
	s.alerts = obs.NewAlertLog(obs.Default)
	s.slos = obs.NewSLOSet(obs.Default, s.alerts, cfg.SLO.Burn)
	if t := cfg.SLO.AvailabilityTarget; t > 0 {
		s.sloHTTPAvail = s.slos.Add("http-availability", obs.SLOAvailability, t, 0)
	}
	if t := cfg.SLO.LatencyTarget; t > 0 && cfg.SLO.LatencyThreshold > 0 {
		s.sloHTTPLat = s.slos.Add("http-latency", obs.SLOLatency, t, cfg.SLO.LatencyThreshold)
	}
	s.sampler = obs.NewSampler(obs.Default, s.workload, s.slos,
		obs.TSDBConfig{Interval: cfg.SampleInterval})
	// Overload-resilience layer (see resilience.go): each piece degrades to
	// a nil no-op when its knob is off, so the zero Config keeps today's
	// direct-execution behavior.
	s.answers = resilience.NewAnswerCache(cfg.CacheBytes, cfg.NegativeTTL,
		func(string, int64) { cacheEvictAnswer.Inc() })
	if !cfg.NoCollapse {
		s.flight = &resilience.Group{}
	}
	s.gate = resilience.NewAdmission(cfg.MaxConcurrent, cfg.QueueDepth)
	if cfg.CacheBytes > 0 || cfg.MaxConcurrent > 0 || cfg.BreakerThreshold > 0 {
		s.breakers = resilience.NewBreakers(cfg.BreakerThreshold, cfg.BreakerCooldown,
			func(to string) { breakerTransition(to).Inc() })
	}
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
	obs.Default.GaugeFunc("rdfa_server_degraded", func() float64 {
		if s.Degraded() {
			return 1
		}
		return 0
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
	mux.HandleFunc("GET /api/trace", s.handleTrace)
	mux.HandleFunc("GET /api/traces", s.handleTraces)
	mux.HandleFunc("GET /api/traces/{id}", s.handleTraceByID)
	mux.HandleFunc("GET /api/workload", s.handleWorkload)
	mux.HandleFunc("GET /api/timeseries", s.handleTimeseries)
	mux.HandleFunc("GET /api/alerts", s.handleAlerts)
	mux.HandleFunc(checkpointEndpoint, s.handleCheckpoint)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
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
	if cfg.SampleInterval > 0 {
		s.sampler.Start()
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
	sess.SetFeedback(s.feedback)
	// The sink fires inside RunAnalyticsCtx while the caller holds s.mu;
	// retainAnalytics only touches the trace store (its own lock).
	sess.SetTraceSink(s.retainAnalytics)
	if s.cfg.Store != nil {
		sess.SetDurability(s.cfg.Store.Sync)
	}
	s.sessions[id] = &sessEntry{sess: sess, lastUsed: s.clock, lastAt: time.Now()}
	sessionsCreated.Inc()
	return sess
}

// ---- term and path JSON codecs ----

// TermJSON is the wire form of an RDF term.
type TermJSON struct {
	Kind     string `json:"kind"` // iri | blank | literal
	Value    string `json:"value"`
	Datatype string `json:"datatype,omitempty"`
	Lang     string `json:"lang,omitempty"`
	Label    string `json:"label,omitempty"` // display hint (output only)
}

func toTermJSON(t rdf.Term) TermJSON {
	out := TermJSON{Value: t.Value, Datatype: t.Datatype, Lang: t.Lang, Label: t.LocalName()}
	switch t.Kind {
	case rdf.KindIRI:
		out.Kind = "iri"
	case rdf.KindBlank:
		out.Kind = "blank"
	default:
		out.Kind = "literal"
	}
	return out
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
	if id := w.Header().Get("X-Request-ID"); id != "" {
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
	// internally locked (rdf.Graph is an RWMutex), and the slow-query log,
	// workload profiler, feedback store and SLO set all carry their own
	// locks. Running queries concurrently is what lets the singleflight
	// group collapse a thundering herd into one execution (resilience.go).
	if st, _, msg, ok := s.answers.LookupNegative(query, time.Now()); ok {
		cacheNegative.Inc()
		w.Header().Set("X-Cache", "negative")
		httpError(w, st, errors.New(msg))
		return
	}
	q, err := sparql.Parse(query)
	if err != nil {
		s.answers.StoreNegative(query, http.StatusBadRequest, "parse_error", err.Error(), time.Now())
		httpError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	switch q.Form {
	case sparql.FormSelect, sparql.FormAsk:
		s.serveQuery(w, r, ctx, q, query)
	case sparql.FormConstruct, sparql.FormDescribe:
		s.serveGraphQuery(w, r, ctx, q, query)
	}
}

// recordWorkload folds one finished query into the workload profiler:
// outcome from the error's abort taxonomy, worst q-error and plan-vs-actual
// rows from the operator profile, and the profile export retained as the
// fingerprint's worst-case exemplar. Safe with a nil profile.
func (s *Server) recordWorkload(kind, query, shape string, dur time.Duration, rows int, err error, prof *sparql.Profile) {
	outcome := "ok"
	if err != nil {
		outcome = sparql.AbortReason(err)
		if outcome == "" {
			outcome = "error"
		}
	}
	var exemplar any
	if exp := prof.Export(); exp != nil {
		exemplar = exp
	}
	s.workload.Observe(obs.QueryRecord{
		FingerprintID: sparql.FingerprintID(shape),
		Shape:         shape,
		Kind:          kind,
		Query:         query,
		Duration:      dur,
		Rows:          rows,
		Outcome:       outcome,
		MaxQError:     prof.MaxQError(),
		When:          time.Now(),
	}, exemplar)
	if ests := prof.Estimates(); len(ests) > 0 {
		conv := make([]obs.OpEstimate, len(ests))
		for i, e := range ests {
			conv[i] = obs.OpEstimate{
				Op: e.Op, Label: e.Label, Est: e.Est, Actual: e.Actual,
				QError: e.QError, Feedback: e.Feedback,
			}
		}
		s.workload.ObserveEstimates(conv)
	}
	// Per-query-shape latency objectives, created lazily as shapes appear.
	// Add is idempotent and degrades to nil past the objective cap, and a
	// nil objective's Observe is a no-op.
	if t := s.cfg.SLO.ShapeLatencyTarget; t > 0 && s.cfg.SLO.ShapeLatencyThreshold > 0 {
		s.slos.Add("shape:"+sparql.FingerprintID(shape), obs.SLOLatency, t, s.cfg.SLO.ShapeLatencyThreshold).
			Observe(dur, err != nil)
	}
}

// execUpdate applies a SPARQL update and reports the change counts. No
// cache is notified: everything derived from the graph — the sessions'
// markers, answer memos and cubes included — compares Graph.Version() when
// it is next read.
func (s *Server) execUpdate(w http.ResponseWriter, r *http.Request, src string) {
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	s.mu.Lock()
	defer s.mu.Unlock()
	start := time.Now()
	tr := obs.NewTrace("update")
	tr.SetID(obs.TraceIDFrom(ctx))
	if id := requestID(r); id != "" {
		tr.Root().SetAttr("request_id", id)
	}
	var updErr error
	defer func() {
		tr.Finish()
		outcome, msg := traceOutcome(updErr)
		s.traces.Offer(obs.TraceCandidate{
			Trace:         tr,
			Kind:          "update",
			FingerprintID: sparql.FingerprintID("update " + src),
			Shape:         "update",
			Query:         src,
			RequestID:     requestID(r),
			Duration:      time.Since(start),
			Outcome:       outcome,
			Err:           msg,
		})
	}()
	es := tr.Root().StartChild("exec")
	res, err := sparql.ExecUpdateCtx(ctx, s.graph, src)
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

// stateJSON is the wire form of the UI state.
type stateJSON struct {
	Breadcrumb   string        `json:"breadcrumb"`
	TotalObjects int           `json:"totalObjects"`
	Depth        int           `json:"depth"`
	HIFUN        string        `json:"hifun,omitempty"`
	Objects      []objectJSON  `json:"objects"`
	Classes      []classJSON   `json:"classes"`
	Facets       []facetJSON   `json:"facets"`
	Analytics    analyticsJSON `json:"analytics"`
}

type objectJSON struct {
	IRI   string `json:"iri"`
	Label string `json:"label"`
	Type  string `json:"type,omitempty"`
}

type classJSON struct {
	IRI      string      `json:"iri"`
	Label    string      `json:"label"`
	Count    int         `json:"count"`
	Children []classJSON `json:"children,omitempty"`
}

type facetJSON struct {
	P        string       `json:"p"`
	Label    string       `json:"label"`
	Inverse  bool         `json:"inverse,omitempty"`
	Grouped  bool         `json:"grouped,omitempty"`
	Measured bool         `json:"measured,omitempty"`
	Numeric  bool         `json:"numeric,omitempty"`
	Values   []valJSON    `json:"values"`
	Buckets  []bucketJSON `json:"buckets,omitempty"`
}

type bucketJSON struct {
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
	Count int     `json:"count"`
}

type valJSON struct {
	Term  TermJSON `json:"term"`
	Count int      `json:"count"`
}

type analyticsJSON struct {
	GroupBy []string `json:"groupBy"`
	Measure string   `json:"measure,omitempty"`
	Ops     []string `json:"ops"`
}

func toClassJSON(nodes []facet.ClassNode) []classJSON {
	out := make([]classJSON, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, classJSON{
			IRI: n.Class.Value, Label: n.Class.LocalName(), Count: n.Count,
			Children: toClassJSON(n.Children),
		})
	}
	return out
}

func (s *Server) stateLocked(sess *core.Session) stateJSON {
	ui := sess.ComputeUIState(50, true)
	out := stateJSON{
		Breadcrumb:   ui.Breadcrumb,
		TotalObjects: ui.TotalObjects,
		Depth:        ui.Depth,
		HIFUN:        ui.HIFUN,
		Classes:      toClassJSON(ui.Classes),
	}
	for _, o := range ui.Objects {
		oj := objectJSON{IRI: o.Object.Value, Label: o.Object.LocalName()}
		if !o.Type.IsZero() {
			oj.Type = o.Type.LocalName()
		}
		out.Objects = append(out.Objects, oj)
	}
	for _, f := range ui.Facets {
		fj := facetJSON{
			P: f.P.Value, Label: f.P.LocalName(), Inverse: f.Inverse,
			Grouped: f.Grouped, Measured: f.Measured, Numeric: f.Numeric,
		}
		if len(f.Values) > 0 { // an empty facet stays nil: it encodes as null
			fj.Values = make([]valJSON, 0, len(f.Values))
		}
		for _, vc := range f.Values {
			fj.Values = append(fj.Values, valJSON{Term: toTermJSON(vc.Value), Count: vc.Count})
		}
		for _, b := range f.Buckets {
			fj.Buckets = append(fj.Buckets, bucketJSON{Lo: b.Lo, Hi: b.Hi, Count: b.Count})
		}
		out.Facets = append(out.Facets, fj)
	}
	a := ui.Analytics
	for _, g := range a.GroupBy {
		out.Analytics.GroupBy = append(out.Analytics.GroupBy, g.String())
	}
	if a.Measure.Path != nil || len(a.Ops) > 0 {
		out.Analytics.Measure = a.Measure.String()
	}
	for _, op := range a.Ops {
		out.Analytics.Ops = append(out.Analytics.Ops, op.String())
	}
	return out
}

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	writeJSON(w, s.stateLocked(s.sessionFor(r)))
}

func (s *Server) handleClickClass(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Class string `json:"class"`
	}
	if err := decode(r, &req); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessionFor(r)
	sess.ClickClass(rdf.NewIRI(req.Class))
	writeJSON(w, s.stateLocked(sess))
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
	writeJSON(w, s.stateLocked(sess))
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
	t, err := fromTermJSON(req.Value)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessionFor(r)
	sess.ClickRange(fromPathJSON(req.Path), req.Op, t)
	writeJSON(w, s.stateLocked(sess))
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
	vals := sess.Model().ExpandPath(sess.State(), fromPathJSON(req.Path))
	out := make([]valJSON, 0, len(vals))
	for _, vc := range vals {
		out = append(out, valJSON{Term: toTermJSON(vc.Value), Count: vc.Count})
	}
	writeJSON(w, map[string]any{"values": out})
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
	writeJSON(w, s.stateLocked(sess))
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
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessionFor(r)
	sess.ClickGroupBy(core.GroupSpec{Path: fromPathJSON(req.Path), Derive: req.Derive})
	writeJSON(w, s.stateLocked(sess))
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
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessionFor(r)
	sess.ClickAggregate(
		core.MeasureSpec{Path: fromPathJSON(req.Path), Derive: req.Derive},
		hifun.Operation{Op: hifun.AggOp(strings.ToUpper(req.Op))},
	)
	writeJSON(w, s.stateLocked(sess))
}

// answerJSON is the wire form of an Answer Frame.
type answerJSON struct {
	GroupCols   []string     `json:"groupCols"`
	MeasureCols []string     `json:"measureCols"`
	Rows        [][]TermJSON `json:"rows"`
	SPARQL      string       `json:"sparql"`
	HIFUN       string       `json:"hifun"`
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessionFor(r)
	q, err := sess.BuildHIFUNQuery()
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	start := time.Now()
	ans, err := sess.RunAnalyticsCtx(ctx)
	dur := time.Since(start)
	// Analytic queries fingerprint by the generated SPARQL when available
	// (it carries the full shape); the HIFUN text stands in on failure.
	shape := "analytics " + q.String()
	rows := 0
	if err == nil {
		shape = sparql.FingerprintQuery(ans.SPARQL)
		rows = len(ans.Rows)
	}
	s.slow.Observe("analytics", q.String(), sparql.FingerprintID(shape), requestID(r), dur, sess.LastTrace())
	s.recordWorkload("analytics", q.String(), shape, dur, rows, err, sess.LastProfile())
	if err != nil {
		queryError(w, err)
		return
	}
	out := answerJSON{
		GroupCols: ans.GroupCols, MeasureCols: ans.MeasureCols,
		SPARQL: ans.SPARQL, HIFUN: q.String(),
	}
	for _, row := range ans.Rows {
		jr := make([]TermJSON, len(row))
		for i, t := range row {
			jr[i] = toTermJSON(t)
		}
		out.Rows = append(out.Rows, jr)
	}
	writeJSON(w, out)
}

func (s *Server) handleLoadAnswer(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessionFor(r)
	if err := sess.LoadAnswerAsDataset(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, s.stateLocked(sess))
}

func (s *Server) handleCloseLevel(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessionFor(r)
	if err := sess.CloseLevel(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, s.stateLocked(sess))
}

func (s *Server) handleBack(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessionFor(r)
	if err := sess.Back(); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, s.stateLocked(sess))
}

func (s *Server) handleReset(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessionFor(r)
	sess.Reset()
	writeJSON(w, s.stateLocked(sess))
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
		if n, err := strconv.Atoi(m); err == nil {
			measure = n
		}
	}
	series, err := viz.AnswerSeries(ans, measure)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	var svg string
	switch r.URL.Query().Get("type") {
	case "pie":
		svg = viz.PieChartSVG(series, 420)
	case "column":
		svg = viz.ColumnChartSVG(series, 640, 320)
	case "line":
		svg = viz.LineChartSVG(series, 640, 320)
	case "treemap":
		svg = viz.TreemapSVG(series, 640, 400)
	case "spiral":
		items := make([]viz.SpiralItem, len(series.Values))
		for i := range series.Values {
			items[i] = viz.SpiralItem{Label: series.Labels[i], Value: series.Values[i]}
		}
		svg = viz.SpiralSVG(viz.SpiralLayout{}.Layout(items), 4)
	default:
		svg = viz.BarChartSVG(series, 640)
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	fmt.Fprint(w, svg)
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
