package obs

import (
	"encoding/json"
	"sort"
	"sync"
	"time"
	"unicode/utf8"
)

// Workload profiling. A Workload aggregates finished operations by their
// structural fingerprint (computed by the caller — internal/sparql owns the
// query AST, this package only stores shapes as opaque strings): a
// fixed-size ring buffer of recent records, per-fingerprint aggregates
// (count, p50/p95 latency, rows, outcome tallies) naming the trace of the
// worst-case execution, and a bounded plan-vs-actual misestimation table
// fed from operator profiles. This is the data behind GET /api/workload and
// the /debug/dashboard page.

const (
	// maxFingerprints bounds the per-fingerprint aggregate map; beyond it
	// the least-recently-seen fingerprint is evicted.
	maxFingerprints = 512
	// maxMisestimates bounds the plan-vs-actual table (worst per operator
	// site, globally capped).
	maxMisestimates = 64
	// maxShapeLen bounds stored fingerprint shapes and query texts.
	maxShapeLen = 400
)

// QueryRecord is the one description of a finished operation — a query,
// analytic run, update or checkpoint, executed or served from a cache. The
// server builds it once and hands the same record to the trace store, the
// workload profiler and the slow-query log. The workload ring keeps it with
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
	// serve, which the trace store is not offered.
	Trace *Trace `json:"-"`
	// Profile is the engine's operator profile of the execution; nil when
	// unprofiled.
	Profile OpProfile `json:"-"`
	// Estimates are the profile's plan-vs-actual rows.
	Estimates []OpEstimate `json:"-"`
}

// OpProfile is what a record needs of an engine's operator profile (a
// *sparql.Profile): its JSON, which the trace store keeps for a retained
// trace, and a one-line summary of its top-level operators, which the
// slow-query log appends to the plan.
type OpProfile interface {
	json.Marshaler
	Summary() string
}

// OpEstimate is one operator's plan-vs-actual comparison: the planner's
// cardinality estimate next to what execution produced, with the q-error
// max(est/act, act/est). Plain data so internal/server can convert from
// sparql profiles without an import cycle.
type OpEstimate struct {
	Op     string  `json:"op"`
	Label  string  `json:"label"`
	Est    int64   `json:"est"`
	Actual int64   `json:"actual"`
	QError float64 `json:"q_error"`
	Count  uint64  `json:"count"`
}

// fpStats aggregates all completed queries of one fingerprint.
type fpStats struct {
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
}

// Workload is the concurrency-safe workload profiler. A nil *Workload is a
// valid no-op, matching the tracer/slow-log convention.
type Workload struct {
	mu     sync.Mutex
	ring   []QueryRecord
	next   int
	filled bool
	total  uint64
	errs   uint64
	lat    *Histogram
	byFP   map[string]*fpStats
	ests   map[string]*OpEstimate
}

// NewWorkload returns a workload profiler whose recent-query ring holds
// ringSize entries (minimum 16).
func NewWorkload(ringSize int) *Workload {
	if ringSize < 16 {
		ringSize = 16
	}
	return &Workload{
		ring: make([]QueryRecord, ringSize),
		lat:  newHistogram(DefBuckets),
		byFP: map[string]*fpStats{},
		ests: map[string]*OpEstimate{},
	}
}

// Observe folds one finished operation into the workload, merging its
// plan-vs-actual rows into the misestimation table. The ring keeps the
// record without its trace, profile and estimates.
func (w *Workload) Observe(rec QueryRecord) {
	if w == nil {
		return
	}
	ests := rec.Estimates
	rec.Trace, rec.Profile, rec.Estimates = nil, nil, nil
	rec.Shape = TruncateText(rec.Shape, maxShapeLen)
	rec.Query = TruncateText(rec.Query, maxShapeLen)
	rec.Err = TruncateText(rec.Err, maxShapeLen)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.ring[w.next] = rec
	w.next = (w.next + 1) % len(w.ring)
	if w.next == 0 {
		w.filled = true
	}
	w.total++
	if rec.Outcome != "ok" {
		w.errs++
	}
	w.lat.Observe(rec.Duration.Seconds())
	fs, ok := w.byFP[rec.FingerprintID]
	if !ok {
		w.evictFingerprintLocked()
		fs = &fpStats{
			id:       rec.FingerprintID,
			shape:    rec.Shape,
			kind:     rec.Kind,
			outcomes: map[string]uint64{},
			lat:      newHistogram(DefBuckets),
		}
		w.byFP[rec.FingerprintID] = fs
	}
	fs.count++
	fs.outcomes[rec.Outcome]++
	fs.lat.Observe(rec.Duration.Seconds())
	fs.totalRows += uint64(rec.Rows)
	fs.lastSeen = rec.When
	if rec.MaxQError > fs.maxQErr {
		fs.maxQErr = rec.MaxQError
	}
	if rec.Duration > fs.worstDur {
		fs.worstDur = rec.Duration
		fs.worstQuery = rec.Query
		fs.worstTrace = rec.TraceID
	}
	w.observeEstimatesLocked(ests)
}

// P95Seconds reports the fingerprint's rolling p95 latency in seconds.
// ok is false until the fingerprint has been observed at least a handful
// of times — a p95 estimated from one or two runs would make the trace
// store's outlier rule fire on noise.
func (w *Workload) P95Seconds(fingerprintID string) (seconds float64, ok bool) {
	if w == nil {
		return 0, false
	}
	w.mu.Lock()
	fs, found := w.byFP[fingerprintID]
	var lat *Histogram
	var n uint64
	if found {
		lat = fs.lat
		n = fs.count
	}
	w.mu.Unlock()
	const minSamples = 5
	if !found || n < minSamples {
		return 0, false
	}
	return lat.Quantile(0.95), true
}

// evictFingerprintLocked drops the least-recently-seen fingerprint when the
// map is at capacity. Caller holds w.mu.
func (w *Workload) evictFingerprintLocked() {
	if len(w.byFP) < maxFingerprints {
		return
	}
	var oldest *fpStats
	for _, fs := range w.byFP {
		if oldest == nil || fs.lastSeen.Before(oldest.lastSeen) {
			oldest = fs
		}
	}
	if oldest != nil {
		delete(w.byFP, oldest.id)
	}
}

// ObserveEstimates merges operator plan-vs-actual rows into the bounded
// misestimation table, keeping the worst q-error per operator site.
func (w *Workload) ObserveEstimates(ests []OpEstimate) {
	if w == nil || len(ests) == 0 {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.observeEstimatesLocked(ests)
}

func (w *Workload) observeEstimatesLocked(ests []OpEstimate) {
	for _, e := range ests {
		key := e.Op + "\x00" + TruncateText(e.Label, maxShapeLen)
		cur, ok := w.ests[key]
		if !ok {
			if len(w.ests) >= maxMisestimates {
				// Full: only displace the current minimum if strictly worse.
				minKey, minQ := "", -1.0
				for k, v := range w.ests {
					if minQ < 0 || v.QError < minQ {
						minKey, minQ = k, v.QError
					}
				}
				if e.QError <= minQ {
					continue
				}
				delete(w.ests, minKey)
			}
			e.Label = TruncateText(e.Label, maxShapeLen)
			e.Count = 1
			ne := e
			w.ests[key] = &ne
			continue
		}
		cur.Count++
		if e.QError > cur.QError {
			cur.QError, cur.Est, cur.Actual = e.QError, e.Est, e.Actual
		}
	}
}

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
	// WorstTrace is the trace ID of the worst-case execution; the trace
	// store's slowest-N rule retains it, so it resolves through
	// /api/traces/{id} until evicted.
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

// Snapshot returns a point-in-time copy of the workload state.
func (w *Workload) Snapshot() WorkloadSnapshot {
	if w == nil {
		return WorkloadSnapshot{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	snap := WorkloadSnapshot{
		Total:  w.total,
		Errors: w.errs,
		P50Ms:  w.lat.Quantile(0.50) * 1000,
		P95Ms:  w.lat.Quantile(0.95) * 1000,
	}
	n := len(w.ring)
	count := w.next
	if w.filled {
		count = n
	}
	for i := 1; i <= count; i++ {
		snap.Recent = append(snap.Recent, w.ring[(w.next-i+n)%n])
	}
	for _, fs := range w.byFP {
		out := map[string]uint64{}
		for k, v := range fs.outcomes {
			out[k] = v
		}
		snap.Fingerprints = append(snap.Fingerprints, FingerprintSummary{
			ID:         fs.id,
			Shape:      fs.shape,
			Kind:       fs.kind,
			Count:      fs.count,
			Outcomes:   out,
			P50Ms:      fs.lat.Quantile(0.50) * 1000,
			P95Ms:      fs.lat.Quantile(0.95) * 1000,
			AvgRows:    float64(fs.totalRows) / float64(fs.count),
			MaxQError:  fs.maxQErr,
			WorstMs:    float64(fs.worstDur.Microseconds()) / 1000,
			WorstQuery: fs.worstQuery,
			WorstTrace: fs.worstTrace,
			LastSeen:   fs.lastSeen,
		})
	}
	sort.SliceStable(snap.Fingerprints, func(i, j int) bool {
		if snap.Fingerprints[i].Count != snap.Fingerprints[j].Count {
			return snap.Fingerprints[i].Count > snap.Fingerprints[j].Count
		}
		return snap.Fingerprints[i].ID < snap.Fingerprints[j].ID
	})
	for _, e := range w.ests {
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
func (w *Workload) TopSlow(k int) []FingerprintSummary {
	snap := w.Snapshot()
	fps := snap.Fingerprints
	sort.SliceStable(fps, func(i, j int) bool { return fps[i].P95Ms > fps[j].P95Ms })
	if len(fps) > k {
		fps = fps[:k]
	}
	return fps
}

// TruncateText bounds s to max bytes without splitting a UTF-8 rune,
// appending an ellipsis when it cut anything.
func TruncateText(s string, max int) string {
	if len(s) <= max {
		return s
	}
	cut := max
	for cut > 0 && !utf8.RuneStart(s[cut]) {
		cut--
	}
	return s[:cut] + "…"
}
