package sparql

import (
	"context"
	"errors"
	"time"

	"rdfanalytics/internal/obs"
)

// Metric handles for the engine, resolved once at package init so the hot
// path pays only atomic adds. Parsing is timed here because it is no
// operator; what execution spends per operator is the profile's
// rdfa_sparql_operator_seconds{op}.
var (
	phaseParse    = obs.Default.Histogram("rdfa_sparql_query_phase_seconds", nil, "phase", "parse")
	execSeconds   = obs.Default.Histogram("rdfa_sparql_exec_seconds", nil)
	queriesParsed = obs.Default.Counter("rdfa_sparql_queries_parsed_total")

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

// observeSince records a duration since start.
func observeSince(h *obs.Histogram, start time.Time) {
	h.Observe(time.Since(start).Seconds())
}
