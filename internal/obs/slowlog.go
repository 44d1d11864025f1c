package obs

import (
	"log/slog"
	"time"
)

// SlowQueryLog emits a structured record for every operation slower than a
// threshold: the query text (truncated), its kind, duration, and a one-line
// plan summary from the operation's trace. A nil *SlowQueryLog is a valid
// no-op, so the server can thread it unconditionally.
type SlowQueryLog struct {
	logger    *slog.Logger
	threshold time.Duration
	count     *Counter
}

// maxLoggedQuery bounds the query text stored in a log record.
const maxLoggedQuery = 600

// The counter family is registered on the Default registry eagerly so that
// /metrics exposes rdfa_slow_queries_total 0 even when no slow-query log is
// configured (scrapers should see the series, not a gap).
var _ = Default.Counter("rdfa_slow_queries_total")

// NewSlowQueryLog builds a slow-query log. threshold <= 0 disables it
// (returns nil). logger nil means slog.Default(). Fired records are counted
// in reg's rdfa_slow_queries_total (reg may be nil).
func NewSlowQueryLog(logger *slog.Logger, threshold time.Duration, reg *Registry) *SlowQueryLog {
	if threshold <= 0 {
		return nil
	}
	if logger == nil {
		logger = slog.Default()
	}
	l := &SlowQueryLog{logger: logger, threshold: threshold}
	if reg != nil {
		l.count = reg.Counter("rdfa_slow_queries_total")
	}
	return l
}

// Threshold returns the configured threshold (0 for a nil log).
func (l *SlowQueryLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	return l.threshold
}

// Observe records one finished operation, logging it when its duration
// reaches the threshold. The line carries the record's fingerprint id (joins
// the workload profiler's aggregates), request id (joins access logs) and
// trace id (joins /api/traces/{id}). The raw query text is truncated
// rune-safely to maxLoggedQuery bytes, so a pathological multi-KB query
// cannot bloat the log line. The plan summary comes from rec.Trace and is
// empty for a cache serve.
func (l *SlowQueryLog) Observe(rec QueryRecord) {
	if l == nil || rec.Duration < l.threshold {
		return
	}
	l.count.Inc()
	l.logger.Warn("slow query",
		slog.String("kind", rec.Kind),
		slog.String("fingerprint", rec.FingerprintID),
		slog.String("request_id", rec.RequestID),
		slog.String("trace_id", rec.TraceID),
		slog.String("outcome", rec.Outcome),
		slog.String("cache", rec.Cache),
		slog.Duration("duration", rec.Duration),
		slog.String("query", TruncateText(rec.Query, maxLoggedQuery)),
		slog.String("plan", rec.Trace.Summary()),
	)
}
