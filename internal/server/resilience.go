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
// An answer is fresh while no predicate its query reads has changed since it
// was computed (resilience.Answer.Fresh): a write outdates only the answers
// that read what it wrote.
//
// Outcome taxonomy on the X-Cache response header: "hit" (fresh cache),
// "stale" (an outdated answer, for a request carrying Cache-Control:
// max-stale, see maxStale), "collapsed" (shared a concurrent identical
// execution over the same version of what it reads), "miss" (executed,
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

// guarded is the one body every engine execution behind /sparql and
// /api/run runs in: the admission gate (admit/wait metrics), then exec as
// one recorded operation (see operation) — recorded after the outcome and
// duration are known, exactly the information head sampling lacks. The
// admission slot is the caller's until it calls release (never nil), so a
// response can be rendered under it. A draining server admits only into a
// free slot, never into the queue.
func (s *Server) guarded(ctx context.Context, rec obs.QueryRecord, exec func(rec *obs.QueryRecord) (*sparql.Profile, error)) (release func(), err error) {
	waitStart := time.Now()
	release, aerr := s.gate.Acquire(ctx, s.draining.Load())
	if aerr != nil {
		return func() {}, aerr
	}
	admissionAdmitted.Inc()
	admissionWait.Observe(time.Since(waitStart).Seconds())
	root := "sparql"
	if rec.Kind == "analytics" {
		root = "run_analytics"
	}
	return release, s.operation(root, rec, exec)
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
// answer, an ASK's rendered, a SELECT's with its sorted table as the source
// of its body (see fill).
func (s *Server) queryExec(q *sparql.Query) cachedExec {
	return func(execCtx context.Context, rec *obs.QueryRecord) (*resilience.Answer, *sparql.Profile, error) {
		ans := &resilience.Answer{ContentType: "application/sparql-results+json"}
		opts := s.engineOpts(rec)
		if q.Form == sparql.FormAsk {
			ok, err := sparql.ExecAskCtx(execCtx, s.graph, q, opts)
			ans.Body = []byte(`{"boolean":` + strconv.FormatBool(ok) + `,"head":{}}` + "\n")
			return ans, opts.Profile, err
		}
		tab, err := sparql.ExecSelectTable(execCtx, s.graph, q, opts)
		if err != nil {
			return nil, opts.Profile, err
		}
		rec.Rows = tab.Len()
		tab.Sort()
		ans.Source = tab
		return ans, opts.Profile, nil
	}
}

// cachedExec is what a cached read runs on a miss: the engine execution
// under rec's trace, the record's rows filled in, and the answer with its
// body or the source of it.
type cachedExec func(execCtx context.Context, rec *obs.QueryRecord) (*resilience.Answer, *sparql.Profile, error)

// serveHit is the first half of the one cached read path, taken by /sparql
// SELECT/ASK and by /api/run at the base level: a fresh hit, or a stale one
// for a request that asks for one (maxStale). It writes the response and
// returns the answer served, or returns nil having written nothing. It reads
// only key and the request's headers, so the caller parses its query — what
// the miss needs for its read set and shape — only after it. rec is the
// operation's record, its Cache still unset.
func (s *Server) serveHit(w http.ResponseWriter, r *http.Request, key resilience.Key, rec obs.QueryRecord, start time.Time) *resilience.Answer {
	if ans, ok := s.answers.GetFresh(key, s.graph); ok {
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
// onto an identical execution over the same version of what it reads, or a
// leader that runs exec (see fill). reads is what the query reads of the
// graph (sparql.ReadSet); rec carries the shape and fingerprint its record
// needs before the execution.
func (s *Server) serveMiss(w http.ResponseWriter, ctx context.Context, key resilience.Key, reads rdf.ReadSet, rec obs.QueryRecord, exec cachedExec, start time.Time) *resilience.Answer {
	// A follower only joins a leader that missed at the same read version:
	// one arriving after a write to a predicate the query reads never shares
	// an execution that may have read the graph before that write.
	flightKey := key.Namespace + "\x00" + key.Text + "\x00" + strconv.FormatUint(s.graph.ReadVersion(reads), 10)
	leader := rec
	leader.Cache = "miss"
	v, collapsed, err := s.flight.Do(ctx, flightKey, func(execCtx context.Context) (any, error) {
		return s.fill(execCtx, key, reads, leader, exec)
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
	setHeader(w, "X-Cache", "miss")
	writeAnswer(w, ans)
	return ans
}

// sharedHeader holds the response header values many responses carry, one
// slice each that all of them share: a slice of capacity 1, so an Add to
// one response's header copies it rather than writing into another's.
var sharedHeader = map[string][]string{}

func init() {
	for _, v := range []string{
		"hit", "stale", "miss", "bypass", "collapsed",
		"application/sparql-results+json", "application/json", "text/csv", "application/n-triples",
	} {
		sharedHeader[v] = []string{v}[:1:1]
	}
}

// setHeader sets the canonical header key to val, with the shared value
// slice when sharedHeader holds one.
func setHeader(w http.ResponseWriter, key, val string) {
	if v, ok := sharedHeader[val]; ok {
		w.Header()[key] = v
		return
	}
	w.Header().Set(key, val)
}

// setTraceHeader points the response at trace id: in place, in the value
// slice the middleware made for this response alone.
func setTraceHeader(w http.ResponseWriter, id string) {
	if v := w.Header()[headerTraceID]; len(v) == 1 {
		v[0] = id
		return
	}
	w.Header().Set(headerTraceID, id)
}

// writeAnswer writes ans's content type, its status, unless it is 200, and
// its body: the rendered one, or one streamed through a pooled chunk under the
// Content-Length its size pass counted, so net/http frames it by length, not
// in chunks of its own. A failed write is the client's loss alone: the
// status is out, and the rest of the body is dropped.
func writeAnswer(w http.ResponseWriter, ans *resilience.Answer) {
	setHeader(w, "Content-Type", ans.ContentType)
	if ans.Body == nil {
		w.Header().Set("Content-Length", strconv.Itoa(ans.Source.JSONSize()))
	}
	if ans.Status != 0 && ans.Status != http.StatusOK {
		w.WriteHeader(ans.Status)
	}
	if ans.Body != nil {
		w.Write(ans.Body)
		return
	}
	chunk := chunks.Get().(*[chunkSize]byte)
	_ = ans.Source.WriteJSON(w, chunk[:0])
	chunks.Put(chunk)
}

// maxStale reads the request's Cache-Control max-stale directive (RFC 9111
// §5.2.1.2): how long ago an outdated answer may have been filled for the
// client to take it. That is min(N s, StaleWindow) for
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
// unless a predicate the answer read changed meanwhile. execCtx is detached from
// any single caller's request (see resilience.Group), bounded by the query
// timeout. rec carries the leader's middleware-minted trace ID; the
// retained trace and the cached answer both carry it, so every response
// serving this execution can point at the same waterfall.
func (s *Server) fill(execCtx context.Context, key resilience.Key, reads rdf.ReadSet, rec obs.QueryRecord, exec cachedExec) (*resilience.Answer, error) {
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
	ans.Version, ans.Reads, ans.When = version, reads, time.Now()
	// The one body rule of /sparql and /api/run: a fresh answer the cache
	// admits at its counted size is rendered once, at that size (len == cap),
	// and stored; any other streams from its source (writeAnswer). A write
	// mid-execution to a predicate it read leaves it neither version's.
	if ans.Body == nil && ans.Fresh(s.graph) && s.answers.Admits(key, ans, ans.Source.JSONSize()) {
		ans.Body, ans.Source = ans.Source.JSON(), nil
	}
	if ans.Body != nil && s.answers.Enabled() && ans.Fresh(s.graph) && s.answers.Put(key, ans) {
		cacheFills.Inc()
	}
	return ans, nil
}

// serveCachedAnswer replays a cached/shared answer. The request went through
// the regular middleware, so X-Request-ID and the per-endpoint latency/SLO
// recording are already in place; here we additionally record the serve so
// cached traffic stays visible in the operations log — which tallies it on
// the filler's trace — and the per-shape SLOs, and point the response and
// the record at the trace of the execution that produced the answer
// (overwriting the middleware-minted ID — this request did no execution of
// its own).
func (s *Server) serveCachedAnswer(w http.ResponseWriter, ans *resilience.Answer, rec obs.QueryRecord, start time.Time) {
	setHeader(w, "X-Cache", rec.Cache)
	if ans.TraceID != "" {
		setTraceHeader(w, ans.TraceID)
	}
	writeAnswer(w, ans)
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
	setHeader(w, "X-Cache", "bypass")
	rec.Cache = "bypass"
	var tab *sparql.Table
	release, err := s.guarded(ctx, rec, func(rec *obs.QueryRecord) (*sparql.Profile, error) {
		opts := s.engineOpts(rec)
		var err error
		if tab, err = sparql.ExecSelectTable(ctx, s.graph, q, opts); err == nil {
			rec.Rows = tab.Len()
		}
		return opts.Profile, err
	})
	defer release()
	if err != nil {
		execError(w, err)
		return
	}
	tab.Sort()
	setHeader(w, "Content-Type", "text/csv")
	tab.WriteCSV(w)
}

// serveGraphQuery is the CONSTRUCT/DESCRIBE path: uncached (triple payloads
// are unbounded and rarely repeated), but admission-gated and budgeted like
// every other engine execution.
func (s *Server) serveGraphQuery(w http.ResponseWriter, ctx context.Context, q *sparql.Query, rec obs.QueryRecord) {
	rec.Cache = "bypass"
	cacheBypass.Inc()
	setHeader(w, "X-Cache", "bypass")
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
	setHeader(w, "Content-Type", "application/n-triples")
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
	setHeader(w, "Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	writeJSONBody(w, body)
}
