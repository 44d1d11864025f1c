package obs

import (
	"cmp"
	"encoding/json"
	"log/slog"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
	"unsafe"
)

// OpLog is the operations log: every finished operation — a query, analytic
// run, update or checkpoint, executed or served from a cache — is one
// QueryRecord, and Record folds it, under one lock, into everything that
// reads the stream:
//
//   - the ring of recent records and the RED totals;
//   - one entry per structural fingerprint (computed by the caller —
//     internal/sparql owns the query AST, this package stores shapes as
//     opaque strings): count, outcomes, latency histogram, worst run, and
//     the durations of the shape's retained slowest traces;
//   - the bounded plan-vs-actual misestimation table;
//   - the tail-sampled retention of the operation's trace, decided after it
//     finished, when its outcome and duration are known (head sampling
//     decides before either is);
//   - a cache serve's tally on the retained trace of the execution that
//     filled the answer.
//
// The retention policy, in decision order:
//
//  1. error   — every trace that erred, timed out, or hit a resource
//     budget is retained; these are the traces an operator goes looking
//     for after an alert.
//  2. slowest — the slowest N completions per fingerprint, so every
//     recurring shape keeps its worst executions. A slower newcomer evicts
//     the fastest of them, so a shape holds at most N.
//  3. outlier — completions slower than OutlierFactor × the shape's p95 so
//     far (once it has 5 runs), catching spikes on shapes whose slowest-N
//     is saturated with slower historical runs.
//  4. residual — a deterministic 1-in-ResidualEvery sample of the rest, so
//     healthy baseline executions stay inspectable.
//
// Everything else is dropped and counted. Retained traces are bounded by
// count and by approximate bytes; eviction removes the oldest trace of the
// least-protected class first (residual, then slowest/outlier, then error).
// Past maxFingerprints live shapes the least recently seen entry is evicted,
// and with it that shape's slowest traces: a returning shape starts afresh.
//
// Two things happen outside the lock: exporting and sizing a retained
// trace's spans, and writing the slow-query line of an operation at least
// as long as the threshold. This is the data behind GET /api/workload,
// /api/traces and /debug/dashboard. All methods are safe on a nil *OpLog.
type OpLog struct {
	cfg    TraceStoreConfig
	slow   time.Duration
	logger *slog.Logger

	mu     sync.Mutex
	ring   []QueryRecord // slot total%len is the next to write
	total  uint64
	errs   uint64
	lat    *Histogram
	shapes map[string]*shapeEntry
	ests   map[string]*OpEstimate // by operator, a NUL and the label
	// spareEsts is a batch of estimate rows to reuse: a record takes it, or
	// makes one when records overlap, and leaves its own.
	spareEsts atomic.Pointer[estimateBatch]

	byID  map[string]*retainedTrace
	list  []*retainedTrace // retention order, oldest first
	nth   uint64           // residual-sampling counter
	bytes int64

	droppedSampled  uint64
	droppedEvicted  uint64
	droppedOversize uint64
	mSampledOut     *Counter
	mEvicted        *Counter
	mOversize       *Counter
}

// TraceStoreConfig tunes trace retention. The zero value means "enabled
// with defaults"; Disabled turns retention off and leaves the rest of the
// log running.
type TraceStoreConfig struct {
	Disabled bool
	// MaxTraces bounds the number of retained traces (default 512).
	MaxTraces int
	// MaxBytes bounds the approximate serialized size of retained traces
	// (default 8 MiB).
	MaxBytes int64
	// SlowestPerFingerprint is the N of the slowest-N rule (default 3).
	SlowestPerFingerprint int
	// OutlierFactor is the multiple of the fingerprint's p95 above which a
	// completion counts as an outlier (default 2.0).
	OutlierFactor float64
	// ResidualEvery retains one in every ResidualEvery otherwise-unsampled
	// traces (default 50). Values < 1 disable the residual rule.
	ResidualEvery int
}

const (
	defaultMaxTraces     = 512
	defaultMaxTraceBytes = 8 << 20
	defaultSlowestPerFP  = 3
	defaultOutlierFactor = 2.0
	defaultResidualEvery = 50
	maxStoredQueryLen    = 2048
	defaultSearchLimit   = 50
	maxSearchLimit       = 500

	// recentOps is the size of the ring of recent records.
	recentOps = 256
	// maxFingerprints bounds the per-fingerprint entries; beyond it the
	// least-recently-seen one is evicted.
	maxFingerprints = 512
	// maxMisestimates bounds the plan-vs-actual table (worst per operator
	// site, globally capped).
	maxMisestimates = 64
	// maxShapeLen bounds the shapes and texts the workload view keeps.
	maxShapeLen = 400
	// maxLoggedQuery bounds the query text of a slow-query line.
	maxLoggedQuery = 600
	// minP95Samples is how many runs a shape needs before its p95 is a
	// baseline: one estimated from one or two runs would make the outlier
	// rule fire on noise.
	minP95Samples = 5
)

// Retention reasons and drop causes (the label values of
// rdfa_trace_retained_total{reason} and rdfa_trace_dropped_total{cause}).
const (
	ReasonError    = "error"
	ReasonSlowest  = "slowest"
	ReasonOutlier  = "outlier"
	ReasonResidual = "residual"

	DropSampledOut = "sampled_out"
	DropEvicted    = "evicted"
	DropOversize   = "oversize"
)

// slowQueries counts slow-query lines. Registered eagerly so /metrics shows
// rdfa_slow_queries_total 0 even with no threshold set: scrapers should see
// the series, not a gap.
var slowQueries = Default.Counter("rdfa_slow_queries_total")

// QueryRecord is the one description of a finished operation. The server
// builds it once and hands it to OpLog.Record. The ring keeps it with
// Trace, Profile and Estimates cleared.
type QueryRecord struct {
	// FingerprintID is the short stable id of the fingerprint.
	FingerprintID string `json:"fingerprint"`
	// Shape is the canonical fingerprint text (bounded).
	Shape string `json:"shape"`
	// Kind is the operation class: "sparql", "analytics", "update",
	// "checkpoint".
	Kind string `json:"kind"`
	// Query is the (truncated) raw query text.
	Query string `json:"query"`
	// Duration is the end-to-end execution time.
	Duration time.Duration `json:"duration_ns"`
	// Rows is the result row count.
	Rows int `json:"rows"`
	// Outcome is "ok", "timeout", "cancelled", "budget" or "error".
	Outcome string `json:"outcome"`
	// Err is the error message for non-ok outcomes.
	Err string `json:"error,omitempty"`
	// Cache is how the answer was produced: the X-Cache result of a /sparql
	// request or an analytic run ("miss", "bypass", "hit", "stale",
	// "collapsed").
	Cache     string `json:"cache,omitempty"`
	RequestID string `json:"request_id,omitempty"`
	// TraceID names the execution's trace — for a cache serve, the trace of
	// the execution that filled the answer.
	TraceID string `json:"trace_id,omitempty"`
	// MaxQError is the worst operator q-error of the run (0 = unprofiled).
	MaxQError float64 `json:"max_q_error,omitempty"`
	// When is the completion time.
	When time.Time `json:"when"`
	// Trace is the finished span tree of an execution; nil for a cache
	// serve, whose trace is the filler's.
	Trace *Trace `json:"-"`
	// Profile is the engine's operator profile of the execution; nil when
	// unprofiled. Its plan-vs-actual rows feed the misestimate table.
	Profile OpProfile `json:"-"`
}

// OpProfile is what a record needs of an engine's operator profile (a
// *sparql.Profile): its JSON, which a retained trace keeps, a one-line
// summary of its top-level operators, which the slow-query line appends to
// the plan, and its plan-vs-actual rows, which the misestimate table merges.
type OpProfile interface {
	json.Marshaler
	Summary() string
	EachEstimate(sink EstimateSink)
}

// EstimateSink takes an operator profile's plan-vs-actual rows, one call a
// row: label is the operator's text (row.Label is unset), valid only during
// the call, so a profile renders it into a buffer it reuses.
type EstimateSink interface {
	Estimate(row OpEstimate, label []byte)
}

// OpEstimate is one operator's plan-vs-actual comparison: the planner's
// cardinality estimate next to what execution produced, with the q-error
// max(est/act, act/est). A profile hands them over as its rows (Count 0);
// the log's misestimate table merges them by operator and label, counting
// each merge in Count.
type OpEstimate struct {
	Op     string  `json:"op"`
	Label  string  `json:"label"`
	Est    int64   `json:"est"`
	Actual int64   `json:"actual"`
	QError float64 `json:"q_error"`
	Count  uint64  `json:"count"`
}

// shapeEntry is everything the log keeps of one fingerprint.
type shapeEntry struct {
	id, shape, kind string
	count           uint64
	outcomes        map[string]uint64
	lat             *Histogram
	totalRows       uint64
	maxQErr         float64
	worstDur        time.Duration
	worstQuery      string
	worstTrace      string
	lastSeen        time.Time
	// slowest holds the durations of the shape's retained slowest traces,
	// ascending: the floor a newcomer must beat once it holds N.
	slowest []time.Duration
}

type retainedTrace struct {
	id            string
	kind          string
	fingerprintID string
	shape         string
	query         string
	requestID     string
	outcome       string
	cache         string
	err           string
	reason        string
	duration      time.Duration
	when          time.Time
	spans         SpanJSON
	profile       json.RawMessage
	serves        map[string]uint64
	bytes         int64
}

// NewOpLog builds the log. retention tunes trace retention (zero fields
// take defaults). slow, when positive, is the slow-query threshold: an
// operation at least that long is written to logger (nil means
// slog.Default()) and counted in rdfa_slow_queries_total.
func NewOpLog(retention TraceStoreConfig, slow time.Duration, logger *slog.Logger) *OpLog {
	if logger == nil {
		logger = slog.Default()
	}
	l := &OpLog{
		cfg:    retention,
		slow:   slow,
		logger: logger,
		ring:   make([]QueryRecord, recentOps),
		lat:    newHistogram(DefBuckets),
		shapes: map[string]*shapeEntry{},
		ests:   map[string]*OpEstimate{},
		byID:   map[string]*retainedTrace{},
	}
	if retention.Disabled {
		return l
	}
	cfg := &l.cfg
	if cfg.MaxTraces <= 0 {
		cfg.MaxTraces = defaultMaxTraces
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = defaultMaxTraceBytes
	}
	if cfg.SlowestPerFingerprint <= 0 {
		cfg.SlowestPerFingerprint = defaultSlowestPerFP
	}
	if cfg.OutlierFactor <= 0 {
		cfg.OutlierFactor = defaultOutlierFactor
	}
	if cfg.ResidualEvery == 0 {
		cfg.ResidualEvery = defaultResidualEvery
	}
	l.mSampledOut = Default.Counter("rdfa_trace_dropped_total", "cause", DropSampledOut)
	l.mEvicted = Default.Counter("rdfa_trace_dropped_total", "cause", DropEvicted)
	l.mOversize = Default.Counter("rdfa_trace_dropped_total", "cause", DropOversize)
	Default.GaugeFunc("rdfa_trace_store_traces", func() float64 {
		l.mu.Lock()
		defer l.mu.Unlock()
		return float64(len(l.list))
	})
	Default.GaugeFunc("rdfa_trace_store_bytes", func() float64 {
		l.mu.Lock()
		defer l.mu.Unlock()
		return float64(l.bytes)
	})
	return l
}

// Retains reports whether trace retention is on.
func (l *OpLog) Retains() bool { return l != nil && !l.cfg.Disabled }

// Record folds one finished operation into the log; its trace's ID (minted
// if it has none) is the record's TraceID. A record without a Trace (a cache serve) has no trace to
// retain, and tallies a serve on its filler's trace instead. Deciding is a
// few map lookups under the lock; the cost of storing a trace — exporting
// its spans and marshaling its profile, once — is paid only for a retained
// one.
func (l *OpLog) Record(rec QueryRecord) {
	if l == nil {
		return
	}
	if rec.Trace != nil {
		rec.TraceID = rec.Trace.ID()
	}
	var ests *estimateBatch
	if rec.Profile != nil {
		if ests = l.spareEsts.Swap(nil); ests == nil {
			ests = new(estimateBatch)
		}
		ests.collect(rec.Profile)
	}
	kept := rec
	kept.Trace, kept.Profile = nil, nil
	kept.Shape = TruncateText(rec.Shape, maxShapeLen)
	kept.Query = TruncateText(rec.Query, maxShapeLen)
	kept.Err = TruncateText(rec.Err, maxShapeLen)

	l.mu.Lock()
	l.ring[l.total%uint64(len(l.ring))] = kept
	l.total++
	if rec.Outcome != "ok" {
		l.errs++
	}
	l.lat.Observe(rec.Duration.Seconds())
	e := l.shapeLocked(kept)
	// The decision reads the shape as it was before this run.
	reason := l.decideLocked(rec, e)
	e.fold(kept)
	l.mergeEstimatesLocked(ests)
	if rec.Trace == nil && rec.Cache != "" {
		if rt := l.byID[rec.TraceID]; rt != nil {
			if rt.serves == nil {
				rt.serves = make(map[string]uint64, 4)
			}
			rt.serves[rec.Cache]++
		}
	}
	l.mu.Unlock()
	if ests != nil {
		l.spareEsts.Store(ests)
	}

	if l.slow > 0 && rec.Duration >= l.slow {
		l.logSlow(rec)
	}
	if reason == "" {
		return
	}
	// Export and size the trace outside the lock: span trees take their own
	// locks and serialization is the expensive part.
	rt := &retainedTrace{
		id:            rec.TraceID,
		kind:          rec.Kind,
		fingerprintID: rec.FingerprintID,
		shape:         TruncateText(rec.Shape, maxStoredQueryLen),
		query:         TruncateText(rec.Query, maxStoredQueryLen),
		requestID:     rec.RequestID,
		outcome:       rec.Outcome,
		cache:         rec.Cache,
		err:           TruncateText(rec.Err, maxStoredQueryLen),
		reason:        reason,
		duration:      rec.Duration,
		when:          time.Now(),
		spans:         rec.Trace.Export(),
	}
	if rec.Profile != nil {
		rt.profile, _ = rec.Profile.MarshalJSON() // a profile that fails to marshal is left out
	}
	rt.spans.TraceID = rt.id
	rt.bytes = approxTraceBytes(rt)

	l.mu.Lock()
	stored := l.insertLocked(rt)
	l.mu.Unlock()
	if stored {
		Default.Counter("rdfa_trace_retained_total", "reason", reason).Inc()
	}
}

// shapeLocked returns rec's fingerprint entry, creating it (and evicting the
// least recently seen entry, with its slowest traces, at capacity).
func (l *OpLog) shapeLocked(rec QueryRecord) *shapeEntry {
	if e, ok := l.shapes[rec.FingerprintID]; ok {
		return e
	}
	if len(l.shapes) >= maxFingerprints {
		var oldest *shapeEntry
		for _, e := range l.shapes {
			if oldest == nil || e.lastSeen.Before(oldest.lastSeen) {
				oldest = e
			}
		}
		delete(l.shapes, oldest.id)
		for i := len(l.list) - 1; i >= 0; i-- {
			if rt := l.list[i]; rt.reason == ReasonSlowest && rt.fingerprintID == oldest.id {
				l.removeLocked(rt, DropEvicted)
			}
		}
	}
	e := &shapeEntry{
		id:       rec.FingerprintID,
		shape:    rec.Shape,
		kind:     rec.Kind,
		outcomes: map[string]uint64{},
		lat:      newHistogram(DefBuckets),
	}
	l.shapes[rec.FingerprintID] = e
	return e
}

// fold adds one run to the shape's aggregates.
func (e *shapeEntry) fold(rec QueryRecord) {
	e.count++
	e.outcomes[rec.Outcome]++
	e.lat.Observe(rec.Duration.Seconds())
	e.totalRows += uint64(rec.Rows)
	e.lastSeen = rec.When
	e.maxQErr = max(e.maxQErr, rec.MaxQError)
	if rec.Duration > e.worstDur {
		e.worstDur, e.worstQuery, e.worstTrace = rec.Duration, rec.Query, rec.TraceID
	}
}

// decideLocked applies the retention policy to an offered trace and returns
// its reason, or "" — counted as sampled out — to drop it. A record without
// a trace, or any record while retention is off, is not offered.
func (l *OpLog) decideLocked(rec QueryRecord, e *shapeEntry) string {
	if rec.Trace == nil || l.cfg.Disabled {
		return ""
	}
	if rec.Outcome != "" && rec.Outcome != "ok" {
		return ReasonError
	}
	if rec.FingerprintID != "" {
		if len(e.slowest) < l.cfg.SlowestPerFingerprint || rec.Duration > e.slowest[0] {
			return ReasonSlowest
		}
		if e.count >= minP95Samples {
			if p95 := e.lat.Quantile(0.95); p95 > 0 && rec.Duration.Seconds() > l.cfg.OutlierFactor*p95 {
				return ReasonOutlier
			}
		}
	}
	if l.cfg.ResidualEvery > 0 {
		l.nth++
		if l.nth%uint64(l.cfg.ResidualEvery) == 0 {
			return ReasonResidual
		}
	}
	l.droppedSampled++
	l.mSampledOut.Inc()
	return ""
}

// insertLocked stores rt and evicts down to the bounds. A slowest trace
// takes its place in the shape's slowest N here, not at the decision: a
// concurrent slower run of the shape, or the shape's eviction, may have
// come in between, and then rt is dropped, so no shape ever holds more than
// N. It reports whether rt was stored.
func (l *OpLog) insertLocked(rt *retainedTrace) bool {
	if rt.reason == ReasonSlowest {
		e, n := l.shapes[rt.fingerprintID], l.cfg.SlowestPerFingerprint
		switch {
		case e == nil:
			l.countDrop(DropEvicted)
			return false
		case len(e.slowest) >= n && rt.duration <= e.slowest[0]:
			l.droppedSampled++
			l.mSampledOut.Inc()
			return false
		case len(e.slowest) >= n:
			// The newcomer displaces the fastest of the N, whose trace goes,
			// so a shape whose latency drifts upward cannot fill the store.
			for _, old := range l.list {
				if old.reason == ReasonSlowest && old.fingerprintID == rt.fingerprintID && old.duration == e.slowest[0] {
					l.removeLocked(old, DropEvicted)
					break
				}
			}
		}
		i := sort.Search(len(e.slowest), func(i int) bool { return e.slowest[i] >= rt.duration })
		e.slowest = append(e.slowest, 0)
		copy(e.slowest[i+1:], e.slowest[i:])
		e.slowest[i] = rt.duration
	}
	l.byID[rt.id] = rt
	l.list = append(l.list, rt)
	l.bytes += rt.bytes
	for len(l.list) > l.cfg.MaxTraces || l.bytes > l.cfg.MaxBytes {
		// The oldest trace of the least-protected class goes first.
		victim := l.list[0]
		for _, cur := range l.list[1:] {
			if evictPriority(cur.reason) < evictPriority(victim.reason) {
				victim = cur
			}
		}
		if victim == rt {
			// The newcomer itself is the lowest-priority trace (or larger
			// than the whole byte budget): reject it rather than churn.
			l.removeLocked(rt, DropOversize)
			break
		}
		l.removeLocked(victim, DropEvicted)
	}
	return true
}

// evictPriority orders traces for eviction: lower goes first.
func evictPriority(reason string) int {
	switch reason {
	case ReasonError:
		return 2
	case ReasonSlowest, ReasonOutlier:
		return 1
	default: // residual
		return 0
	}
}

func (l *OpLog) removeLocked(rt *retainedTrace, cause string) {
	delete(l.byID, rt.id)
	for i, cur := range l.list {
		if cur == rt {
			l.list = append(l.list[:i], l.list[i+1:]...)
			break
		}
	}
	l.bytes -= rt.bytes
	if e := l.shapes[rt.fingerprintID]; e != nil && rt.reason == ReasonSlowest {
		for i, d := range e.slowest {
			if d == rt.duration {
				e.slowest = append(e.slowest[:i], e.slowest[i+1:]...)
				break
			}
		}
	}
	l.countDrop(cause)
}

func (l *OpLog) countDrop(cause string) {
	if cause == DropOversize {
		l.droppedOversize++
		l.mOversize.Inc()
		return
	}
	l.droppedEvicted++
	l.mEvicted.Inc()
}

// approxTraceBytes estimates the serialized footprint of a retained trace
// for the byte bound. JSON size is what /api/traces will actually ship.
func approxTraceBytes(rt *retainedTrace) int64 {
	n := int64(len(rt.id) + len(rt.kind) + len(rt.fingerprintID) +
		len(rt.shape) + len(rt.query) + len(rt.requestID) + len(rt.err) + 128)
	if b, err := json.Marshal(rt.spans); err == nil {
		n += int64(len(b))
	}
	return n + int64(len(rt.profile))
}

// estimateBatch is one record's plan-vs-actual rows on their way into the
// misestimate table, collected outside the log's lock into buffers the log
// keeps one spare of (OpLog.spareEsts): row i's key, its op, a NUL and its
// label truncated to maxShapeLen, is text[rows[i].from:rows[i].to].
type estimateBatch struct {
	rows []batchedEstimate
	text []byte
}

type batchedEstimate struct {
	OpEstimate
	from, to int
}

// collect takes prof's rows, worst q-error first: the order in which a full
// table lets a new site displace its least-bad one.
func (b *estimateBatch) collect(prof OpProfile) {
	b.rows, b.text = b.rows[:0], b.text[:0]
	prof.EachEstimate(b)
	slices.SortStableFunc(b.rows, func(x, y batchedEstimate) int { return cmp.Compare(y.QError, x.QError) })
}

// Estimate implements EstimateSink.
func (b *estimateBatch) Estimate(row OpEstimate, label []byte) {
	from := len(b.text)
	b.text = appendTruncated(append(append(b.text, row.Op...), 0), label, maxShapeLen)
	b.rows = append(b.rows, batchedEstimate{OpEstimate: row, from: from, to: len(b.text)})
}

// mergeEstimatesLocked folds a batch (nil for none) into the misestimate
// table. A site the table holds is looked up by its key in the batch's
// text; only a new site allocates its key and its row.
func (l *OpLog) mergeEstimatesLocked(b *estimateBatch) {
	if b == nil {
		return
	}
	for _, e := range b.rows {
		key := b.text[e.from:e.to]
		if cur, ok := l.ests[string(key)]; ok {
			cur.Count++
			if e.QError > cur.QError {
				cur.QError, cur.Est, cur.Actual = e.QError, e.Est, e.Actual
			}
			continue
		}
		if len(l.ests) >= maxMisestimates {
			// Full: only displace the current minimum if strictly worse.
			var minKey string
			minQ := -1.0
			for k, v := range l.ests {
				if minQ < 0 || v.QError < minQ {
					minKey, minQ = k, v.QError
				}
			}
			if e.QError <= minQ {
				continue
			}
			delete(l.ests, minKey)
		}
		k := string(key)
		ne := e.OpEstimate
		ne.Label, ne.Count = k[len(ne.Op)+1:], 1
		l.ests[k] = &ne
	}
}

// logSlow writes the slow-query line of rec. It carries the fingerprint id
// (joins /api/workload), the request id (joins access logs) and the trace id
// (joins /api/traces/{id}). The query text is truncated rune-safely to
// maxLoggedQuery bytes, so a multi-KB query cannot bloat the line. The plan
// is the layers' spans (the root and its children) followed by the engine's
// top-level operators; it is empty for a cache serve.
func (l *OpLog) logSlow(rec QueryRecord) {
	slowQueries.Inc()
	plan := rec.Trace.Summary()
	if rec.Profile != nil {
		plan += " " + rec.Profile.Summary()
	}
	l.logger.Warn("slow query",
		slog.String("kind", rec.Kind),
		slog.String("fingerprint", rec.FingerprintID),
		slog.String("request_id", rec.RequestID),
		slog.String("trace_id", rec.TraceID),
		slog.String("outcome", rec.Outcome),
		slog.String("cache", rec.Cache),
		slog.Duration("duration", rec.Duration),
		slog.String("query", TruncateText(rec.Query, maxLoggedQuery)),
		slog.String("plan", plan),
	)
}

// ---- the workload view ----

// FingerprintSummary is the aggregate view of one fingerprint.
type FingerprintSummary struct {
	ID         string            `json:"fingerprint"`
	Shape      string            `json:"shape"`
	Kind       string            `json:"kind"`
	Count      uint64            `json:"count"`
	Outcomes   map[string]uint64 `json:"outcomes"`
	P50Ms      float64           `json:"p50_ms"`
	P95Ms      float64           `json:"p95_ms"`
	AvgRows    float64           `json:"avg_rows"`
	MaxQError  float64           `json:"max_q_error,omitempty"`
	WorstMs    float64           `json:"worst_ms"`
	WorstQuery string            `json:"worst_query,omitempty"`
	// WorstTrace is the trace ID of the worst-case execution; the slowest-N
	// rule retains it, so it resolves through /api/traces/{id} until evicted.
	WorstTrace string    `json:"worst_trace,omitempty"`
	LastSeen   time.Time `json:"last_seen"`
}

// WorkloadSnapshot is the JSON shape of GET /api/workload: RED aggregates,
// the recent-query ring (newest first), per-fingerprint summaries (most
// frequent first) and the misestimation table (worst q-error first).
type WorkloadSnapshot struct {
	Total        uint64               `json:"total"`
	Errors       uint64               `json:"errors"`
	P50Ms        float64              `json:"p50_ms"`
	P95Ms        float64              `json:"p95_ms"`
	Recent       []QueryRecord        `json:"recent"`
	Fingerprints []FingerprintSummary `json:"fingerprints"`
	Misestimates []OpEstimate         `json:"misestimates"`
}

// Snapshot returns a point-in-time copy of the workload view.
func (l *OpLog) Snapshot() WorkloadSnapshot {
	if l == nil {
		return WorkloadSnapshot{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	snap := WorkloadSnapshot{
		Total:  l.total,
		Errors: l.errs,
		P50Ms:  l.lat.Quantile(0.50) * 1000,
		P95Ms:  l.lat.Quantile(0.95) * 1000,
	}
	n := uint64(len(l.ring))
	for i := uint64(1); i <= min(l.total, n); i++ {
		snap.Recent = append(snap.Recent, l.ring[(l.total-i)%n])
	}
	for _, e := range l.shapes {
		out := make(map[string]uint64, len(e.outcomes))
		for k, v := range e.outcomes {
			out[k] = v
		}
		snap.Fingerprints = append(snap.Fingerprints, FingerprintSummary{
			ID:         e.id,
			Shape:      e.shape,
			Kind:       e.kind,
			Count:      e.count,
			Outcomes:   out,
			P50Ms:      e.lat.Quantile(0.50) * 1000,
			P95Ms:      e.lat.Quantile(0.95) * 1000,
			AvgRows:    float64(e.totalRows) / float64(e.count),
			MaxQError:  e.maxQErr,
			WorstMs:    float64(e.worstDur.Microseconds()) / 1000,
			WorstQuery: e.worstQuery,
			WorstTrace: e.worstTrace,
			LastSeen:   e.lastSeen,
		})
	}
	sort.SliceStable(snap.Fingerprints, func(i, j int) bool {
		if snap.Fingerprints[i].Count != snap.Fingerprints[j].Count {
			return snap.Fingerprints[i].Count > snap.Fingerprints[j].Count
		}
		return snap.Fingerprints[i].ID < snap.Fingerprints[j].ID
	})
	for _, e := range l.ests {
		snap.Misestimates = append(snap.Misestimates, *e)
	}
	sort.SliceStable(snap.Misestimates, func(i, j int) bool {
		if snap.Misestimates[i].QError != snap.Misestimates[j].QError {
			return snap.Misestimates[i].QError > snap.Misestimates[j].QError
		}
		return snap.Misestimates[i].Label < snap.Misestimates[j].Label
	})
	return snap
}

// TopSlow returns the k fingerprints with the highest p95 latency.
func (s WorkloadSnapshot) TopSlow(k int) []FingerprintSummary {
	fps := append([]FingerprintSummary(nil), s.Fingerprints...)
	sort.SliceStable(fps, func(i, j int) bool { return fps[i].P95Ms > fps[j].P95Ms })
	return fps[:min(k, len(fps))]
}

// ---- the trace view ----

// TraceSummary is the search-result wire form of a retained trace.
type TraceSummary struct {
	ID            string            `json:"id"`
	Kind          string            `json:"kind"`
	FingerprintID string            `json:"fingerprint,omitempty"`
	Shape         string            `json:"shape,omitempty"`
	Query         string            `json:"query,omitempty"`
	RequestID     string            `json:"request_id,omitempty"`
	Outcome       string            `json:"outcome"`
	Cache         string            `json:"cache,omitempty"`
	Err           string            `json:"error,omitempty"`
	Reason        string            `json:"reason"`
	DurationMS    float64           `json:"durationMs"`
	When          time.Time         `json:"when"`
	Serves        map[string]uint64 `json:"serves,omitempty"`
}

// TraceDetail is the single-trace wire form: the summary plus the full
// span waterfall and operator profile.
type TraceDetail struct {
	TraceSummary
	Spans   SpanJSON        `json:"spans"`
	Profile json.RawMessage `json:"profile,omitempty"`
}

// TraceQuery filters Search. Zero fields match everything.
type TraceQuery struct {
	// Fingerprint matches FingerprintID exactly, or as a substring of the
	// shape text when no exact fingerprint matches it.
	Fingerprint string
	MinDuration time.Duration
	Outcome     string
	Reason      string
	Kind        string
	Since       time.Time
	// Limit caps results (default 50, max 500).
	Limit int
}

// TraceStoreStats is the retention accounting of /api/traces and the
// dashboard.
type TraceStoreStats struct {
	Retained        int            `json:"retained"`
	Bytes           int64          `json:"bytes"`
	ByReason        map[string]int `json:"by_reason,omitempty"`
	DroppedSampled  uint64         `json:"dropped_sampled_out"`
	DroppedEvicted  uint64         `json:"dropped_evicted"`
	DroppedOversize uint64         `json:"dropped_oversize"`
}

// Contains reports whether id names a currently retained trace. The HTTP
// middleware uses it to attach exemplars only for trace IDs that will
// actually resolve.
func (l *OpLog) Contains(id string) bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	_, ok := l.byID[id]
	return ok
}

// Search returns summaries of retained traces matching q, newest first.
func (l *OpLog) Search(q TraceQuery) []TraceSummary {
	if l == nil {
		return nil
	}
	limit := q.Limit
	if limit <= 0 {
		limit = defaultSearchLimit
	}
	limit = min(limit, maxSearchLimit)
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []TraceSummary
	for i := len(l.list) - 1; i >= 0 && len(out) < limit; i-- {
		rt := l.list[i]
		if q.Fingerprint != "" && rt.fingerprintID != q.Fingerprint &&
			!strings.Contains(rt.shape, q.Fingerprint) {
			continue
		}
		if q.MinDuration > 0 && rt.duration < q.MinDuration {
			continue
		}
		if q.Outcome != "" && rt.outcome != q.Outcome {
			continue
		}
		if q.Reason != "" && rt.reason != q.Reason {
			continue
		}
		if q.Kind != "" && rt.kind != q.Kind {
			continue
		}
		if !q.Since.IsZero() && rt.when.Before(q.Since) {
			continue
		}
		out = append(out, rt.summaryLocked())
	}
	return out
}

// Get returns the full detail (span waterfall + profile) of a trace.
func (l *OpLog) Get(id string) (TraceDetail, bool) {
	if l == nil {
		return TraceDetail{}, false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	rt, ok := l.byID[id]
	if !ok {
		return TraceDetail{}, false
	}
	return TraceDetail{TraceSummary: rt.summaryLocked(), Spans: rt.spans, Profile: rt.profile}, true
}

func (rt *retainedTrace) summaryLocked() TraceSummary {
	sum := TraceSummary{
		ID:            rt.id,
		Kind:          rt.kind,
		FingerprintID: rt.fingerprintID,
		Shape:         rt.shape,
		Query:         rt.query,
		RequestID:     rt.requestID,
		Outcome:       rt.outcome,
		Cache:         rt.cache,
		Err:           rt.err,
		Reason:        rt.reason,
		DurationMS:    float64(rt.duration.Microseconds()) / 1000,
		When:          rt.when,
	}
	if len(rt.serves) > 0 {
		sum.Serves = make(map[string]uint64, len(rt.serves))
		for k, v := range rt.serves {
			sum.Serves[k] = v
		}
	}
	return sum
}

// TraceStats snapshots retention accounting.
func (l *OpLog) TraceStats() TraceStoreStats {
	if l == nil {
		return TraceStoreStats{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	st := TraceStoreStats{
		Retained:        len(l.list),
		Bytes:           l.bytes,
		DroppedSampled:  l.droppedSampled,
		DroppedEvicted:  l.droppedEvicted,
		DroppedOversize: l.droppedOversize,
	}
	if len(l.list) > 0 {
		st.ByReason = make(map[string]int, 4)
		for _, rt := range l.list {
			st.ByReason[rt.reason]++
		}
	}
	return st
}

// TruncateText bounds s to max bytes without splitting a UTF-8 rune,
// appending an ellipsis when it cut anything.
func TruncateText(s string, max int) string {
	if len(s) <= max {
		return s
	}
	// One allocation, as s[:cut]+"…" would be: b is never written again.
	b := appendTruncated(make([]byte, 0, max+len("…")), s, max)
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// appendTruncated appends s to b, bounded as TruncateText bounds it: the
// one truncation rule of the workload view, whose misestimate keys are
// built with it.
func appendTruncated[T ~string | ~[]byte](b []byte, s T, max int) []byte {
	if len(s) <= max {
		return append(b, s...)
	}
	cut := max
	for cut > 0 && !utf8.RuneStart(s[cut]) {
		cut--
	}
	return append(append(b, s[:cut]...), "…"...)
}
