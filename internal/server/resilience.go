// The overload-resilient read flow of /sparql and /api/run: answer cache →
// stale serving (only when the request asks) → singleflight collapse →
// admission gate → engine. The cache is keyed by what the request says (a
// query's raw text, a run's key), so /sparql looks a query up before it
// parses it: a hit runs no parser. Assembled from the primitives in
// internal/resilience; this file owns the HTTP-facing policy — what is
// cacheable, what each rejection looks like on the wire, and which metrics
// each outcome feeds. Every decision reads request-path state only: the
// cache, the gate's occupancy and the drain flag.
//
// Outcome taxonomy on the X-Cache response header: "hit" (fresh cache),
// "stale" (an earlier graph version's answer, for a request carrying
// Cache-Control: max-stale, see maxStale), "collapsed" (shared a concurrent
// identical execution at the same graph version), "miss" (executed,
// possibly filling the cache), "bypass" (shape not cacheable: CSV accept,
// CONSTRUCT, DESCRIBE, a run at a reloaded level).
package server

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"

	"rdfanalytics/internal/fault"
	"rdfanalytics/internal/obs"
	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/resilience"
	"rdfanalytics/internal/sparql"
)

// Metric handles for the resilience layer. The per-result/per-reason
// variants are resolved eagerly so every family (and its label values)
// exists on /metrics from process start — the convention metrics-lint
// checks.
var (
	cacheHit       = obs.Default.Counter("rdfa_cache_requests_total", "result", "hit")
	cacheStale     = obs.Default.Counter("rdfa_cache_requests_total", "result", "stale")
	cacheMiss      = obs.Default.Counter("rdfa_cache_requests_total", "result", "miss")
	cacheBypass    = obs.Default.Counter("rdfa_cache_requests_total", "result", "bypass")
	cacheCollapsed = obs.Default.Counter("rdfa_cache_collapsed_total")
	cacheFills     = obs.Default.Counter("rdfa_cache_fills_total")

	cacheEvictAnswer  = obs.Default.Counter("rdfa_cache_evictions_total", "cache", "answer")
	admissionAdmitted = obs.Default.Counter("rdfa_admission_admitted_total")
	admissionWait     = obs.Default.Histogram("rdfa_admission_wait_seconds", nil)
)

// admissionRejected resolves the rejection counter for one shed reason.
func admissionRejected(reason string) *obs.Counter {
	return obs.Default.Counter("rdfa_admission_rejected_total", "reason", reason)
}

// shedReasons are every reason a /sparql request can be shed for: the
// label values registered eagerly and the dashboard's shed sum.
var shedReasons = []string{
	resilience.ReasonQueueFull,
	resilience.ReasonDeadline,
	resilience.ReasonDraining,
}

func init() {
	for _, reason := range shedReasons {
		admissionRejected(reason)
	}
}

// sparqlRecord starts the record of one /sparql operation: the query and
// the request's ids. Its shape and fingerprint come from the parse on a miss
// and from the answer on a hit.
func sparqlRecord(r *http.Request, raw string) obs.QueryRecord {
	return obs.QueryRecord{Kind: "sparql", Query: raw, RequestID: requestID(r), TraceID: traceIDOf(r)}
}

// guarded is the one body every engine execution behind /sparql and
// /api/run runs in: admission gate (admit/wait metrics), a trace carrying the
// request's ids (rec.Trace while exec runs), exec and the operation's record
// — made after the outcome and duration are known, exactly the information
// head sampling lacks. exec fills in the record's rows (a run also its
// shape) and returns the operator profile (nil for none). The admission slot
// is the caller's until it calls release (never nil), so a response can be
// rendered under it. A draining server admits only into a free slot, never
// into the queue.
func (s *Server) guarded(ctx context.Context, rec obs.QueryRecord, exec func(rec *obs.QueryRecord) (*sparql.Profile, error)) (release func(), err error) {
	waitStart := time.Now()
	release, aerr := s.gate.Acquire(ctx, s.draining.Load())
	if aerr != nil {
		return func() {}, aerr
	}
	admissionAdmitted.Inc()
	admissionWait.Observe(time.Since(waitStart).Seconds())

	start := time.Now()
	root := "sparql"
	if rec.Kind == "analytics" {
		root = "run_analytics"
	}
	rec.Trace = obs.NewTrace(root)
	rec.Trace.SetID(rec.TraceID)
	if rec.RequestID != "" {
		rec.Trace.Root().SetAttr("request_id", rec.RequestID)
	}
	prof, err := exec(&rec)
	rec.Duration = time.Since(start)
	rec.Trace.Finish()
	s.record(rec, err, prof)
	return release, err
}

// engineOpts are the options of every engine execution behind /sparql, of
// every form: budgeted, and profiled under the operation's trace — the
// profile is the trace's engine detail.
func (s *Server) engineOpts(rec *obs.QueryRecord) sparql.Options {
	return sparql.Options{Trace: rec.Trace, Limits: s.cfg.Limits, Profile: sparql.NewProfile("sparql")}
}

// execError maps a guarded execution's error onto the wire: the structured
// 503 for a shed request, the abort/engine error otherwise.
func execError(w http.ResponseWriter, err error) {
	var aerr *resilience.AdmitError
	if errors.As(err, &aerr) {
		admitReject(w, aerr)
		return
	}
	queryError(w, err)
}

// queryExec is what a SELECT or ASK runs on a miss: the engine, and the
// answer rendered to its JSON body.
func (s *Server) queryExec(q *sparql.Query) cachedExec {
	return func(execCtx context.Context, rec *obs.QueryRecord) (*resilience.Answer, *sparql.Profile, error) {
		ans := &resilience.Answer{ContentType: "application/sparql-results+json"}
		opts := s.engineOpts(rec)
		if q.Form == sparql.FormAsk {
			ok, err := sparql.ExecAskCtx(execCtx, s.graph, q, opts)
			ans.Body = []byte(`{"boolean":` + strconv.FormatBool(ok) + `,"head":{}}` + "\n")
			return ans, opts.Profile, err
		}
		res, err := sparql.ExecSelectCtx(execCtx, s.graph, q, opts)
		if err != nil {
			return nil, opts.Profile, err
		}
		rec.Rows = len(res.Rows)
		res.Sort()
		// The serializer hands over the body at its final size (len == cap),
		// so what the answer cache accounts is what the answer holds.
		ans.Body = res.JSON()
		return ans, opts.Profile, nil
	}
}

// cachedExec is what a cached read runs on a miss: the engine execution
// under rec's trace, the record's rows (and a run's shape) filled in, and
// the answer rendered to its body.
type cachedExec func(execCtx context.Context, rec *obs.QueryRecord) (*resilience.Answer, *sparql.Profile, error)

// serveCached is the one cached read path, taken by /sparql SELECT/ASK and by
// /api/run at the base level: serveHit, then on a miss serveMiss. /sparql
// takes the two halves apart, with its parse between them. rec is the
// operation's record, its Cache still unset. The response is written here;
// the answer served is returned, nil after an error response.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, ctx context.Context, key resilience.Key, rec obs.QueryRecord, exec cachedExec) *resilience.Answer {
	start := time.Now()
	if ans := s.serveHit(w, r, key, rec, start); ans != nil {
		return ans
	}
	return s.serveMiss(w, ctx, key, rec, exec, start)
}

// serveHit is the first half of the cached read path: a fresh hit, or a
// stale one for a request that asks for one (maxStale). It writes the
// response and returns the answer served, or returns nil having written
// nothing. It reads only key and the request's headers, so /sparql calls it
// before parsing.
func (s *Server) serveHit(w http.ResponseWriter, r *http.Request, key resilience.Key, rec obs.QueryRecord, start time.Time) *resilience.Answer {
	if ans, ok := s.answers.Get(key, s.graph.Version()); ok {
		cacheHit.Inc()
		rec.Cache = "hit"
		s.serveCachedAnswer(w, ans, rec, start)
		return ans
	}
	if window, ok := s.maxStale(r); ok {
		if ans, ok := s.answers.GetStale(key, time.Now(), window); ok {
			cacheStale.Inc()
			w.Header().Set("Age", strconv.Itoa(int(time.Since(ans.When).Seconds())))
			w.Header().Set("X-Graph-Version", strconv.FormatUint(ans.Version, 10))
			rec.Cache = "stale"
			s.serveCachedAnswer(w, ans, rec, start)
			return ans
		}
	}
	return nil
}

// serveMiss is the second half of the cached read path: a follower collapsed
// onto an identical execution at the same graph version, or a leader that
// runs exec (see fill). rec carries the shape and fingerprint its record
// needs before the execution.
func (s *Server) serveMiss(w http.ResponseWriter, ctx context.Context, key resilience.Key, rec obs.QueryRecord, exec cachedExec, start time.Time) *resilience.Answer {
	// A follower only joins a leader that read the same graph version when
	// it missed: one arriving after an update never shares an execution that
	// may have read the graph before it.
	flightKey := key.Namespace + "\x00" + key.Text + "\x00" + strconv.FormatUint(s.graph.Version(), 10)
	leader := rec
	leader.Cache = "miss"
	v, collapsed, err := s.flight.Do(ctx, flightKey, s.cfg.QueryTimeout, func(execCtx context.Context) (any, error) {
		return s.fill(execCtx, key, leader, exec)
	})
	if err != nil {
		execError(w, err)
		return nil
	}
	ans := v.(*resilience.Answer)
	if collapsed {
		cacheCollapsed.Inc()
		rec.Cache = "collapsed"
		s.serveCachedAnswer(w, ans, rec, start)
		return ans
	}
	cacheMiss.Inc()
	w.Header().Set("X-Cache", "miss")
	w.Header().Set("Content-Type", ans.ContentType)
	w.Write(ans.Body)
	return ans
}

// maxStale reads the request's Cache-Control max-stale directive (RFC 9111
// §5.2.1.2): how long ago an answer of an earlier graph version may have
// been filled for the client to take it. That is min(N s, StaleWindow) for
// max-stale=N and StaleWindow for a bare max-stale. ok is false without the
// directive or when stale serving is off; a malformed value is ignored.
func (s *Server) maxStale(r *http.Request) (window time.Duration, ok bool) {
	if s.cfg.StaleWindow <= 0 {
		return 0, false
	}
	for _, line := range r.Header.Values("Cache-Control") {
		for _, directive := range strings.Split(line, ",") {
			name, value, hasValue := strings.Cut(strings.TrimSpace(directive), "=")
			if !strings.EqualFold(name, "max-stale") {
				continue
			}
			if !hasValue {
				return s.cfg.StaleWindow, true
			}
			n, err := strconv.ParseUint(strings.Trim(value, `"`), 10, 32)
			if err != nil {
				continue
			}
			return min(time.Duration(n)*time.Second, s.cfg.StaleWindow), true
		}
	}
	return 0, false
}

// fill is the singleflight leader body: exec guarded, and the cache filled
// when the graph version did not move meanwhile. execCtx is detached from
// any single caller's request (see resilience.Group), bounded by the query
// timeout. rec carries the leader's middleware-minted trace ID; the
// retained trace and the cached answer both carry it, so every response
// serving this execution can point at the same waterfall.
func (s *Server) fill(execCtx context.Context, key resilience.Key, rec obs.QueryRecord, exec cachedExec) (*resilience.Answer, error) {
	version := s.graph.Version()
	var ans *resilience.Answer
	release, err := s.guarded(execCtx, rec, func(rec *obs.QueryRecord) (prof *sparql.Profile, err error) {
		// The chaos site sits inside the measured window so injected latency
		// is indistinguishable from a genuinely slow execution downstream
		// (slow-query log, workload profile, retained traces).
		if err := fault.InjectCtx(execCtx, "server.sparql.exec"); err != nil {
			return nil, err
		}
		if ans, prof, err = exec(execCtx, rec); err == nil {
			ans.Status, ans.Rows, ans.TraceID = http.StatusOK, rec.Rows, rec.Trace.ID()
			ans.Shape, ans.FingerprintID = rec.Shape, rec.FingerprintID
		}
		return prof, err
	})
	release()
	if err != nil {
		return nil, err
	}
	ans.Version, ans.When = version, time.Now()
	// Fill only if the graph version is unchanged: a mutation mid-execution
	// means the result reflects neither version cleanly.
	if s.answers.Enabled() && s.graph.Version() == version {
		s.answers.Put(key, ans)
		cacheFills.Inc()
	}
	return ans, nil
}

// serveCachedAnswer replays a cached/shared answer. The request went through
// the regular middleware, so X-Request-ID and the per-endpoint latency/SLO
// recording are already in place; here we additionally record the serve so
// cached traffic stays visible in the workload profile, the slow-query log
// and per-shape SLOs, and point the response and the record at the trace
// of the execution that produced the answer (overwriting the
// middleware-minted ID — this request did no execution of its own).
func (s *Server) serveCachedAnswer(w http.ResponseWriter, ans *resilience.Answer, rec obs.QueryRecord, start time.Time) {
	w.Header().Set("X-Cache", rec.Cache)
	w.Header().Set("Content-Type", ans.ContentType)
	if ans.TraceID != "" {
		w.Header().Set(headerTraceID, ans.TraceID)
		s.traces.RecordServe(ans.TraceID, rec.Cache)
	}
	if ans.Status != 0 && ans.Status != http.StatusOK {
		w.WriteHeader(ans.Status)
	}
	w.Write(ans.Body)
	// A run's shape is known once its SPARQL is, and a /sparql hit parsed
	// nothing: the filler's shape and fingerprint stand for both.
	rec.Rows, rec.TraceID, rec.Duration = ans.Rows, ans.TraceID, time.Since(start)
	rec.Shape, rec.FingerprintID = ans.Shape, ans.FingerprintID
	s.record(rec, nil, nil)
}

// execSelectCSV is the uncached CSV rendering of a SELECT, still behind the
// admission gate: the cache stores one rendering per query.
func (s *Server) execSelectCSV(w http.ResponseWriter, ctx context.Context, q *sparql.Query, rec obs.QueryRecord) {
	cacheBypass.Inc()
	w.Header().Set("X-Cache", "bypass")
	rec.Cache = "bypass"
	var res *sparql.Results
	release, err := s.guarded(ctx, rec, func(rec *obs.QueryRecord) (*sparql.Profile, error) {
		opts := s.engineOpts(rec)
		var err error
		if res, err = sparql.ExecSelectCtx(ctx, s.graph, q, opts); err == nil {
			rec.Rows = len(res.Rows)
		}
		return opts.Profile, err
	})
	defer release()
	if err != nil {
		execError(w, err)
		return
	}
	res.Sort()
	w.Header().Set("Content-Type", "text/csv")
	res.WriteCSV(w)
}

// serveGraphQuery is the CONSTRUCT/DESCRIBE path: uncached (triple payloads
// are unbounded and rarely repeated), but admission-gated and budgeted like
// every other engine execution.
func (s *Server) serveGraphQuery(w http.ResponseWriter, ctx context.Context, q *sparql.Query, rec obs.QueryRecord) {
	rec.Cache = "bypass"
	cacheBypass.Inc()
	w.Header().Set("X-Cache", "bypass")
	var out *rdf.Graph
	release, err := s.guarded(ctx, rec, func(rec *obs.QueryRecord) (*sparql.Profile, error) {
		opts := s.engineOpts(rec)
		var err error
		if q.Form == sparql.FormConstruct {
			rec.Trace.Root().SetAttr("form", "construct")
			out, err = sparql.ExecConstructCtx(ctx, s.graph, q, opts)
		} else {
			rec.Trace.Root().SetAttr("form", "describe")
			out, err = sparql.ExecDescribeCtx(ctx, s.graph, q, opts)
		}
		if err == nil {
			rec.Rows = out.Len()
		}
		return opts.Profile, err
	})
	defer release()
	if err != nil {
		execError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/n-triples")
	rdf.WriteNTriples(w, out)
}

// admitReject writes and counts the structured 503 for a shed request:
// machine-readable reason, the request id, and a Retry-After back-off hint.
// A follower sharing a shed leader's error is a shed request too, so the
// counter moves once per 503, not once per refused execution.
func admitReject(w http.ResponseWriter, aerr *resilience.AdmitError) {
	admissionRejected(aerr.Reason).Inc()
	w.Header().Set("Retry-After", strconv.Itoa(int(aerr.RetryAfter/time.Second)))
	body := map[string]string{"error": aerr.Msg, "reason": aerr.Reason}
	if id := w.Header().Get(headerRequestID); id != "" {
		body["request_id"] = id
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	writeJSONBody(w, body)
}
