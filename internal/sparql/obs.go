package sparql

import (
	"context"
	"errors"
	"time"

	"rdfanalytics/internal/obs"
)

// Metric handles for the evaluator's phase timings, resolved once at
// package init so the hot path pays only atomic adds. The phases mirror
// the pipeline the trace spans describe: parse → match (BGP joins and
// filters) → aggregate/project → modifiers.
var (
	phaseParse     = obs.Default.Histogram("rdfa_sparql_query_phase_seconds", nil, "phase", "parse")
	phaseMatch     = obs.Default.Histogram("rdfa_sparql_query_phase_seconds", nil, "phase", "match")
	phaseAggregate = obs.Default.Histogram("rdfa_sparql_query_phase_seconds", nil, "phase", "aggregate")
	phaseProject   = obs.Default.Histogram("rdfa_sparql_query_phase_seconds", nil, "phase", "project")
	phaseModifiers = obs.Default.Histogram("rdfa_sparql_query_phase_seconds", nil, "phase", "modifiers")
	execSeconds    = obs.Default.Histogram("rdfa_sparql_exec_seconds", nil)
	queriesParsed  = obs.Default.Counter("rdfa_sparql_queries_parsed_total")

	// Abort outcomes: every evaluation that ends early is classified as a
	// deadline expiry, an explicit cancellation, or a resource-budget kill.
	queriesTimeout   = obs.Default.Counter("rdfa_sparql_queries_timeout_total")
	queriesCancelled = obs.Default.Counter("rdfa_sparql_queries_cancelled_total")
	queriesBudget    = obs.Default.Counter("rdfa_sparql_queries_budget_exceeded_total")
)

// AbortReason classifies an evaluation error into the metric/annotation
// taxonomy: "timeout", "cancelled", "budget", or "" for ordinary errors.
func AbortReason(err error) string {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "cancelled"
	case errors.Is(err, ErrBudgetExceeded):
		return "budget"
	default:
		return ""
	}
}

// observeAbort counts an aborted evaluation and annotates the trace root,
// so /metrics and /api/traces/{id} both show why a query died.
func observeAbort(root *obs.Span, err error) {
	reason := AbortReason(err)
	switch reason {
	case "timeout":
		queriesTimeout.Inc()
	case "cancelled":
		queriesCancelled.Inc()
	case "budget":
		queriesBudget.Inc()
	default:
		return
	}
	if root != nil {
		root.SetAttr("aborted", reason)
		root.SetAttr("abort_error", err.Error())
	}
}

// enterSpan opens a child span under the evaluator's current span and makes
// it current. Returns nil (and changes nothing) when tracing is off.
func (ev *evaluator) enterSpan(name string) *obs.Span {
	if ev.cur == nil {
		return nil
	}
	s := ev.cur.StartChild(name)
	if s != nil {
		ev.cur = s
	}
	return s
}

// exitSpan finishes a span opened by enterSpan and pops back to its parent.
func (ev *evaluator) exitSpan(s *obs.Span) {
	if s == nil {
		return
	}
	s.Finish()
	ev.cur = s.Parent()
}

// observeSince records a phase duration; shared shape for all phase sites.
func observeSince(h *obs.Histogram, start time.Time) {
	h.Observe(time.Since(start).Seconds())
}
