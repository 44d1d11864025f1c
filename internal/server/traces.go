// The trace search API over the tail-sampling retention store
// (obs.TraceStore): GET /api/traces searches retained traces by
// fingerprint, duration, outcome, retention reason, kind and recency;
// GET /api/traces/{id} returns one trace's full span waterfall and
// operator profile. This file also owns record, the one hand-off that
// feeds the store: every finished operation reaches it, and through it the
// workload profiler, the slow-query log and the per-shape objectives.
//
// The drill-down this enables, with no scripting anywhere: a slow shape —
// a "shape:<fingerprint>" objective burning its budget on /metrics, or a
// row of the dashboard's slowest fingerprints — → /api/traces
// ?fingerprint=<fp> lists the retained exemplar executions of that shape
// (the errors and the slowest ones first, because those are what the tail
// sampler keeps) → /api/traces/{id} shows where the time went, span by
// span and operator by operator.
package server

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"rdfanalytics/internal/obs"
	"rdfanalytics/internal/sparql"
)

// traceIDOf returns the trace ID the middleware stamped on the request.
func traceIDOf(r *http.Request) string {
	return r.Header.Get(headerTraceID)
}

// record is the one hand-off of a finished operation: every /sparql
// execution or cache serve, analytic run, update and checkpoint ends here,
// so the trace store, the workload profiler, the slow-query log and the
// per-shape latency objectives all read the same record. It fills in what
// every caller would otherwise derive: the outcome from err's abort
// taxonomy ("ok", or "timeout", "cancelled", "budget", … with "error" as
// the fallback), and the profile's worst q-error and plan-vs-actual rows
// (prof may be nil). The profile itself rides along by reference: the trace
// store marshals it only for a trace it retains. A record without a trace (a
// cache serve) keeps the filler's trace ID and is not offered.
// Only reads count against a shape objective: an update or checkpoint is as
// long as the graph is big.
func (s *Server) record(rec obs.QueryRecord, err error, prof *sparql.Profile) {
	rec.Outcome = "ok"
	if err != nil {
		rec.Outcome, rec.Err = sparql.AbortReason(err), err.Error()
		if rec.Outcome == "" {
			rec.Outcome = "error"
		}
	}
	if prof != nil {
		rec.Profile = prof
		rec.MaxQError = prof.MaxQError()
		ests := prof.Estimates()
		rec.Estimates = make([]obs.OpEstimate, len(ests))
		for i, e := range ests {
			rec.Estimates[i] = obs.OpEstimate{
				Op: e.Op, Label: e.Label, Est: e.Est, Actual: e.Actual,
				QError: e.QError,
			}
		}
	}
	rec.When = time.Now()
	if rec.Trace != nil {
		s.traces.Offer(rec)
		rec.TraceID = rec.Trace.ID()
	}
	s.workload.Observe(rec)
	s.slow.Observe(rec)
	if t := s.cfg.SLO.ShapeLatencyTarget; t > 0 && s.cfg.SLO.ShapeLatencyThreshold > 0 &&
		(rec.Kind == "sparql" || rec.Kind == "analytics") {
		// Created lazily as shapes appear: Add is idempotent and degrades to
		// nil past the objective cap, and a nil objective's Observe is a no-op.
		s.slos.Add("shape:"+rec.FingerprintID, obs.SLOLatency, t, s.cfg.SLO.ShapeLatencyThreshold).
			Observe(rec.Duration, err != nil)
	}
}

// tracesJSON is the GET /api/traces payload: the matching summaries plus
// the store's retention/drop accounting, so a consumer can tell an empty
// result from a disabled or saturated store.
type tracesJSON struct {
	Traces []obs.TraceSummary  `json:"traces"`
	Stats  obs.TraceStoreStats `json:"stats"`
}

// handleTraces searches retained traces. Query parameters:
//
//	fingerprint — exact fingerprint ID, or substring of the shape text
//	min_ms      — minimum duration in milliseconds (float)
//	outcome     — "ok", "timeout", "budget", "cancelled", "error"
//	reason      — retention reason: "error", "slowest", "outlier", "residual"
//	kind        — "sparql", "analytics", "update", "checkpoint"
//	since       — RFC 3339 lower bound on retention time
//	limit       — result cap (default 50, max 500)
//
// Results are newest first.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		httpError(w, http.StatusConflict, errors.New("trace retention is disabled"))
		return
	}
	q := r.URL.Query()
	tq := obs.TraceQuery{
		Fingerprint: q.Get("fingerprint"),
		Outcome:     q.Get("outcome"),
		Reason:      q.Get("reason"),
		Kind:        q.Get("kind"),
	}
	if v := q.Get("min_ms"); v != "" {
		// The bound keeps the conversion to a Duration defined; NaN fails
		// both comparisons.
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || !(ms >= 0 && ms <= float64(math.MaxInt64/int64(time.Millisecond))) {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad min_ms %q (want non-negative milliseconds)", v))
			return
		}
		tq.MinDuration = time.Duration(ms * float64(time.Millisecond))
	}
	if v := q.Get("since"); v != "" {
		t, err := time.Parse(time.RFC3339, v)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad since %q (want RFC 3339)", v))
			return
		}
		tq.Since = t
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q (want a positive integer)", v))
			return
		}
		tq.Limit = n
	}
	out := tracesJSON{Traces: s.traces.Search(tq), Stats: s.traces.Stats()}
	if out.Traces == nil {
		out.Traces = []obs.TraceSummary{}
	}
	writeJSON(w, out)
}

// handleTraceByID serves one retained trace in full: summary, span
// waterfall, operator profile, and the serve counts accumulated while its
// cached answer was replayed.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		httpError(w, http.StatusConflict, errors.New("trace retention is disabled"))
		return
	}
	id := r.PathValue("id")
	d, ok := s.traces.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound,
			fmt.Errorf("no retained trace %q (never retained, or evicted since)", id))
		return
	}
	writeJSON(w, d)
}
