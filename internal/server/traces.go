// Recording operations, and the trace search API over what the operations
// log (obs.OpLog) retains. Every finished operation is opened by operation
// and reaches record, the one hand-off into the log. GET /api/traces
// searches retained traces by fingerprint, duration, outcome, retention
// reason, kind and recency; GET /api/traces/{id} returns one trace's full
// span waterfall and operator profile.
//
// The drill-down this enables, with no scripting anywhere: a slow shape —
// a fingerprint whose p95 climbs in /api/workload, or a row of the
// dashboard's slowest fingerprints — → /api/traces?fingerprint=<fp> lists
// the retained exemplar executions of that shape (the errors and the
// slowest ones first, because those are what the tail sampler keeps) →
// /api/traces/{id} shows where the time went, span by span and operator by
// operator.
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

// operation runs do as one recorded operation: a trace rooted at root that
// carries the request's trace and request IDs (rec.Trace while do runs), do
// timed, the trace finished and the record made. do fills in what it learns
// (rows, a shape) and returns the operator profile (nil for none). Every
// engine execution, update and checkpoint runs in it.
func (s *Server) operation(root string, rec obs.QueryRecord, do func(rec *obs.QueryRecord) (*sparql.Profile, error)) error {
	start := time.Now()
	rec.Trace = obs.NewTrace(root)
	rec.Trace.SetID(rec.TraceID)
	rec.Trace.SetRequestID(rec.RequestID)
	prof, err := do(&rec)
	rec.Duration = time.Since(start)
	rec.Trace.Finish()
	s.record(rec, err, prof)
	return err
}

// record is the one hand-off of a finished operation: every /sparql
// execution or cache serve, analytic run, update and checkpoint ends here,
// in one record for the operations log. It fills in what every caller
// would otherwise derive: the outcome from err's abort taxonomy ("ok", or
// "timeout", "cancelled", "budget", … with "error" as the fallback), and
// the profile's worst q-error (prof may be nil). The profile itself rides
// along by reference: the log reads its plan-vs-actual rows, and marshals it
// only for a trace it retains. A record without a trace (a cache serve) carries
// the filler's trace ID.
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
	}
	rec.When = time.Now()
	s.oplog.Record(rec)
}

// tracesJSON is the GET /api/traces payload: the matching summaries plus
// the log's retention/drop accounting, so a consumer can tell an empty
// result from disabled or saturated retention.
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
	if !s.oplog.Retains() {
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
	out := tracesJSON{Traces: s.oplog.Search(tq), Stats: s.oplog.TraceStats()}
	if out.Traces == nil {
		out.Traces = []obs.TraceSummary{}
	}
	writeJSON(w, out)
}

// handleTraceByID serves one retained trace in full: summary, span
// waterfall, operator profile, and the serve counts accumulated while its
// cached answer was replayed.
func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	if !s.oplog.Retains() {
		httpError(w, http.StatusConflict, errors.New("trace retention is disabled"))
		return
	}
	id := r.PathValue("id")
	d, ok := s.oplog.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound,
			fmt.Errorf("no retained trace %q (never retained, or evicted since)", id))
		return
	}
	writeJSON(w, d)
}
