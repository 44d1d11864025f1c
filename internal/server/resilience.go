// The overload-resilient /sparql serving flow: answer cache → degraded-mode
// stale serving → circuit breaker → singleflight collapse → admission gate →
// engine. Assembled from the primitives in internal/resilience; this file
// owns the HTTP-facing policy — what is cacheable, what each rejection looks
// like on the wire, and which metrics each outcome feeds.
//
// Outcome taxonomy on the X-Cache response header: "hit" (fresh cache),
// "stale" (degraded-mode serve of a previous graph version within the
// staleness window), "collapsed" (shared a concurrent identical execution),
// "miss" (executed, possibly filling the cache), "negative" (remembered
// parse error), "bypass" (shape not cacheable: CSV accept, CONSTRUCT,
// DESCRIBE).
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
	cacheNegative  = obs.Default.Counter("rdfa_cache_requests_total", "result", "negative")
	cacheBypass    = obs.Default.Counter("rdfa_cache_requests_total", "result", "bypass")
	cacheCollapsed = obs.Default.Counter("rdfa_cache_collapsed_total")
	cacheFills     = obs.Default.Counter("rdfa_cache_fills_total")

	cacheEvictAnswer  = obs.Default.Counter("rdfa_cache_evictions_total", "cache", "answer")
	_                 = obs.Default.Counter("rdfa_cache_evictions_total", "cache", "session")
	admissionAdmitted = obs.Default.Counter("rdfa_admission_admitted_total")
	admissionWait     = obs.Default.Histogram("rdfa_admission_wait_seconds", nil)
	breakerRejected   = obs.Default.Counter("rdfa_breaker_rejected_total")
)

// admissionRejected resolves the rejection counter for one shed reason.
func admissionRejected(reason string) *obs.Counter {
	return obs.Default.Counter("rdfa_admission_rejected_total", "reason", reason)
}

// breakerTransition resolves the transition counter for one target state.
func breakerTransition(to string) *obs.Counter {
	return obs.Default.Counter("rdfa_breaker_transitions_total", "to", to)
}

// abortedForBreaker reports whether an execution error belongs to the
// failure class that trips the circuit breaker (timeout/budget). The
// evaluator reports a cancellation made on behalf of an expired deadline as
// that timeout (context.Cause), so a plain "cancelled" here is a client
// that went away.
func abortedForBreaker(err error) bool {
	switch sparql.AbortReason(err) {
	case "timeout", "budget":
		return true
	}
	return false
}

// Eager registration of the label values the flow can emit.
var _ = []*obs.Counter{
	admissionRejected(resilience.ReasonQueueFull),
	admissionRejected(resilience.ReasonShapeLimit),
	admissionRejected(resilience.ReasonDeadline),
	admissionRejected(resilience.ReasonDegraded),
	breakerTransition(resilience.StateOpen),
	breakerTransition(resilience.StateHalfOpen),
	breakerTransition(resilience.StateClosed),
}

// defaultDegradedShedCost is the per-shape EWMA execution cost above which
// uncached shapes are shed while degraded, when Config.DegradedShedCost is
// zero.
const defaultDegradedShedCost = 250 * time.Millisecond

// Degraded reports whether the server is in graceful-degradation mode:
// graceful shutdown has begun, or a page-severity SLO alert is firing. While
// degraded the serving flow prefers slightly-stale cache hits, refuses to
// queue new work, and sheds uncached shapes whose learned cost exceeds
// DegradedShedCost.
func (s *Server) Degraded() bool {
	return s.draining.Load() || s.alerts.MaxSeverity() == obs.SeverityPage
}

func (s *Server) shedCostSeconds() float64 {
	if s.cfg.DegradedShedCost > 0 {
		return s.cfg.DegradedShedCost.Seconds()
	}
	return defaultDegradedShedCost.Seconds()
}

// execution identifies one engine execution to the gate, the breaker and the
// trace store.
type execution struct {
	raw, shape, fpID string
	reqID, traceID   string
	cache            string // the X-Cache outcome it serves: "miss" or "bypass"
}

// newExecution reads the request's ids; each read allocates (the header
// names are not in canonical form), so it is kept off the cache-hit path.
func newExecution(r *http.Request, raw, shape, fpID, cache string) execution {
	return execution{
		raw: raw, shape: shape, fpID: fpID,
		reqID: requestID(r), traceID: traceIDOf(r), cache: cache,
	}
}

// breakerAllows asks the circuit breaker for the shape; on refusal it has
// already written the 503.
func (s *Server) breakerAllows(w http.ResponseWriter, fpID string) bool {
	aerr := s.breakers.Allow(fpID, time.Now())
	if aerr != nil {
		breakerRejected.Inc()
		admitReject(w, aerr)
	}
	return aerr == nil
}

// guarded is the one body every engine execution behind /sparql runs in:
// admission gate (admit/wait/reject metrics), a trace carrying the request's
// ids, exec, the breaker's cost-and-abort observation and the tail-sampling
// retention offer — made after the outcome and duration are known, exactly
// the information head sampling lacks. exec returns the operator profile to
// retain with the trace (nil for none). The admission slot is the caller's
// until it calls release (never nil), so a response can be rendered under it.
func (s *Server) guarded(ctx context.Context, e execution, exec func(tr *obs.Trace, start time.Time) (*sparql.Profile, error)) (release func(), err error) {
	waitStart := time.Now()
	release, aerr := s.gate.Acquire(ctx, e.fpID, s.Degraded())
	if aerr != nil {
		admissionRejected(aerr.Reason).Inc()
		return func() {}, aerr
	}
	admissionAdmitted.Inc()
	admissionWait.Observe(time.Since(waitStart).Seconds())

	start := time.Now()
	tr := obs.NewTrace("sparql")
	tr.SetID(e.traceID)
	if e.reqID != "" {
		tr.Root().SetAttr("request_id", e.reqID)
	}
	prof, err := exec(tr, start)
	dur := time.Since(start)
	tr.Finish()
	s.breakers.Observe(e.fpID, dur, abortedForBreaker(err), time.Now())
	outcome, msg := traceOutcome(err)
	cand := obs.TraceCandidate{
		Trace: tr, Kind: "sparql",
		FingerprintID: e.fpID, Shape: e.shape, Query: e.raw,
		RequestID: e.reqID, Duration: dur,
		Outcome: outcome, Cache: e.cache, Err: msg,
	}
	if exp := prof.Export(); exp != nil {
		cand.Profile = exp
	}
	s.traces.Offer(cand)
	return release, err
}

// execSelect runs a SELECT inside guarded: profiled, planned with the shared
// feedback store, and recorded in the slow-query log and workload profiler.
func (s *Server) execSelect(ctx context.Context, q *sparql.Query, e execution, tr *obs.Trace, start time.Time) (*sparql.Results, *sparql.Profile, error) {
	prof := sparql.NewProfile("sparql")
	res, err := sparql.ExecSelectCtx(ctx, s.graph, q, sparql.Options{
		Trace: tr, Limits: s.cfg.Limits, Profile: prof,
		Feedback: s.feedback, FingerprintID: e.fpID,
	})
	dur := time.Since(start)
	s.slow.Observe("sparql", e.raw, e.fpID, e.reqID, dur, tr)
	rows := 0
	if res != nil {
		rows = len(res.Rows)
	}
	s.recordWorkload("sparql", e.raw, e.shape, dur, rows, err, prof)
	return res, prof, err
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

// serveQuery is the SELECT/ASK read path. raw is the query text exactly as
// received — it is part of the cache key, so queries that share a structural
// fingerprint but differ in any constant (value, datatype, language tag,
// timezone) can never share an entry.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, ctx context.Context, q *sparql.Query, raw string) {
	start := time.Now()
	shape := sparql.Fingerprint(q)
	fpID := sparql.FingerprintID(shape)
	if q.Form == sparql.FormSelect && strings.Contains(r.Header.Get("Accept"), "text/csv") {
		// CSV rendering is not cached (the cache stores one rendering per
		// query); execute directly under the admission gate.
		cacheBypass.Inc()
		w.Header().Set("X-Cache", "bypass")
		s.execSelectCSV(w, ctx, q, newExecution(r, raw, shape, fpID, "bypass"))
		return
	}

	key := resilience.CacheKey(fpID, raw)
	if ans, ok := s.answers.Lookup(key, s.graph.Version()); ok {
		cacheHit.Inc()
		s.serveCachedAnswer(w, ans, "hit", raw, shape, start)
		return
	}
	degraded := s.Degraded()
	if degraded {
		if ans, ok := s.answers.LookupStale(key, time.Now(), s.cfg.StaleWindow); ok {
			cacheStale.Inc()
			s.serveCachedAnswer(w, ans, "stale", raw, shape, start)
			return
		}
	}
	if !s.breakerAllows(w, fpID) {
		return
	}
	if degraded {
		// Shed known-expensive uncached shapes first: their learned EWMA
		// cost is exactly the work a degraded server cannot afford.
		if ewma, ok := s.breakers.EWMASeconds(fpID); ok && ewma > s.shedCostSeconds() {
			aerr := &resilience.AdmitError{
				Reason:     resilience.ReasonDegraded,
				Msg:        "server degraded: shedding expensive uncached query shape",
				RetryAfter: 5 * time.Second,
			}
			admissionRejected(aerr.Reason).Inc()
			admitReject(w, aerr)
			return
		}
	}

	v, collapsed, err := s.flight.Do(ctx, key, s.cfg.QueryTimeout, func(execCtx context.Context) (any, error) {
		return s.executeQuery(execCtx, q, newExecution(r, raw, shape, fpID, "miss"), key)
	})
	if err != nil {
		execError(w, err)
		return
	}
	ans := v.(*resilience.Answer)
	if collapsed {
		cacheCollapsed.Inc()
		s.serveCachedAnswer(w, ans, "collapsed", raw, shape, start)
		return
	}
	cacheMiss.Inc()
	w.Header().Set("X-Cache", "miss")
	w.Header().Set("Content-Type", ans.ContentType)
	w.Write(ans.Body)
}

// executeQuery is the singleflight leader body: the guarded execution of a
// SELECT or ASK rendered to its JSON body, and the version-checked cache
// fill. execCtx is detached from any single caller's request (see
// resilience.Group), bounded by the query timeout. e carries the leader's
// middleware-minted trace ID; the retained trace and the cached answer both
// carry it, so every response serving this execution can point at the same
// waterfall.
func (s *Server) executeQuery(execCtx context.Context, q *sparql.Query, e execution, key string) (any, error) {
	version := s.graph.Version()
	// The serializer hands over the body at its final size (len == cap), so
	// what the answer cache accounts is what the answer holds.
	var body []byte
	var rows int
	var traceID string
	release, err := s.guarded(execCtx, e, func(tr *obs.Trace, start time.Time) (*sparql.Profile, error) {
		traceID = tr.ID()
		// The chaos site sits inside the measured window so injected latency
		// is indistinguishable from a genuinely slow execution downstream
		// (slow-query log, workload profile, breaker cost EWMA).
		if err := fault.InjectCtx(execCtx, "server.sparql.exec"); err != nil {
			return nil, err
		}
		if q.Form == sparql.FormAsk {
			ok, err := sparql.ExecAskCtx(execCtx, s.graph, q, sparql.Options{Trace: tr, Limits: s.cfg.Limits})
			if err == nil {
				body = []byte(`{"boolean":` + strconv.FormatBool(ok) + `,"head":{}}` + "\n")
			}
			return nil, err
		}
		res, prof, err := s.execSelect(execCtx, q, e, tr, start)
		if err == nil {
			rows = len(res.Rows)
			res.Sort()
			body = res.JSON()
		}
		return prof, err
	})
	release()
	if err != nil {
		return nil, err
	}
	ans := &resilience.Answer{
		Body:        body,
		ContentType: "application/sparql-results+json",
		Status:      http.StatusOK,
		Rows:        rows,
		Shape:       e.shape,
		TraceID:     traceID,
		Version:     version,
		When:        time.Now(),
	}
	// Fill only if the graph version is unchanged: a mutation mid-execution
	// means the result reflects neither version cleanly.
	if s.answers.Enabled() && s.graph.Version() == version {
		s.answers.Store(key, ans)
		cacheFills.Inc()
	}
	return ans, nil
}

// serveCachedAnswer replays a cached/shared answer. The request went through
// the regular middleware, so X-Request-ID and the per-endpoint latency/SLO
// recording are already in place; here we additionally fold the serve into
// the workload profiler so cached traffic stays visible in RED metrics and
// per-shape SLOs, and point the response at the trace of the execution
// that produced the answer (overwriting the middleware-minted ID — this
// request did no execution of its own).
func (s *Server) serveCachedAnswer(w http.ResponseWriter, ans *resilience.Answer, result, raw, shape string, start time.Time) {
	w.Header().Set("X-Cache", result)
	w.Header().Set("Content-Type", ans.ContentType)
	if ans.TraceID != "" {
		w.Header().Set("X-Trace-ID", ans.TraceID)
		s.traces.RecordServe(ans.TraceID, result)
	}
	if ans.Status != 0 && ans.Status != http.StatusOK {
		w.WriteHeader(ans.Status)
	}
	w.Write(ans.Body)
	s.recordWorkload("sparql", raw, shape, time.Since(start), ans.Rows, nil, nil)
}

// execSelectCSV is the uncached CSV rendering of a SELECT, still behind the
// admission gate and circuit breaker.
func (s *Server) execSelectCSV(w http.ResponseWriter, ctx context.Context, q *sparql.Query, e execution) {
	if !s.breakerAllows(w, e.fpID) {
		return
	}
	var res *sparql.Results
	release, err := s.guarded(ctx, e, func(tr *obs.Trace, start time.Time) (prof *sparql.Profile, err error) {
		res, prof, err = s.execSelect(ctx, q, e, tr, start)
		return prof, err
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
// are unbounded and rarely repeated), but admission-gated,
// breaker-protected and budgeted like every other engine execution.
func (s *Server) serveGraphQuery(w http.ResponseWriter, r *http.Request, ctx context.Context, q *sparql.Query, raw string) {
	shape := sparql.Fingerprint(q)
	e := newExecution(r, raw, shape, sparql.FingerprintID(shape), "bypass")
	cacheBypass.Inc()
	w.Header().Set("X-Cache", "bypass")
	if !s.breakerAllows(w, e.fpID) {
		return
	}
	var out *rdf.Graph
	release, err := s.guarded(ctx, e, func(tr *obs.Trace, _ time.Time) (_ *sparql.Profile, err error) {
		opts := sparql.Options{Trace: tr, Limits: s.cfg.Limits}
		if q.Form == sparql.FormConstruct {
			tr.Root().SetAttr("form", "construct")
			out, err = sparql.ExecConstructCtx(ctx, s.graph, q, opts)
		} else {
			tr.Root().SetAttr("form", "describe")
			out, err = sparql.ExecDescribeCtx(ctx, s.graph, q, opts)
		}
		return nil, err
	})
	defer release()
	if err != nil {
		execError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/n-triples")
	rdf.WriteNTriples(w, out)
}

// admitReject writes the structured 503 for a shed request: machine-readable
// reason, the request id, and a Retry-After back-off hint.
func admitReject(w http.ResponseWriter, aerr *resilience.AdmitError) {
	if aerr.RetryAfter > 0 {
		secs := int(aerr.RetryAfter.Round(time.Second).Seconds())
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	body := map[string]string{"error": aerr.Msg, "reason": aerr.Reason}
	if id := w.Header().Get("X-Request-ID"); id != "" {
		body["request_id"] = id
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	writeJSONBody(w, body)
}
