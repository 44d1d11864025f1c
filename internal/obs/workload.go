package obs

import (
	"sort"
	"sync"
	"time"
	"unicode/utf8"
)

// Workload profiling. A Workload aggregates completed queries by their
// structural fingerprint (computed by the caller — internal/sparql owns the
// query AST, this package only stores shapes as opaque strings): a
// fixed-size ring buffer of recent queries, per-fingerprint aggregates
// (count, p50/p95 latency, rows, outcome tallies) with the worst-case
// execution retained as an exemplar, and a bounded plan-vs-actual
// misestimation table fed from operator profiles. This is the data behind
// GET /api/workload and the /debug/dashboard page.

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

// QueryRecord is one completed query as the workload profiler stores it.
type QueryRecord struct {
	// FingerprintID is the short stable id of the fingerprint.
	FingerprintID string `json:"fingerprint"`
	// Shape is the canonical fingerprint text (bounded).
	Shape string `json:"shape"`
	// Kind is the query class: "sparql", "analytics", "update", ...
	Kind string `json:"kind"`
	// Query is the (truncated) raw query text.
	Query string `json:"query"`
	// Duration is the end-to-end execution time.
	Duration time.Duration `json:"duration_ns"`
	// Rows is the result row count.
	Rows int `json:"rows"`
	// Outcome is "ok", "timeout", "cancelled", "budget" or "error".
	Outcome string `json:"outcome"`
	// MaxQError is the worst operator q-error of the run (0 = unprofiled).
	MaxQError float64 `json:"max_q_error,omitempty"`
	// When is the completion time.
	When time.Time `json:"when"`
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
	// Feedback marks an estimate that was seeded from the planner's
	// execution-feedback store rather than the cold graph count.
	Feedback bool `json:"feedback,omitempty"`
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
	exemplar        any
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

// Observe folds one completed query into the workload. exemplar is an
// opaque JSON-marshalable view of the execution (trace or profile export);
// it is retained only when this run is the fingerprint's new worst case.
func (w *Workload) Observe(rec QueryRecord, exemplar any) {
	if w == nil {
		return
	}
	rec.Shape = TruncateText(rec.Shape, maxShapeLen)
	rec.Query = TruncateText(rec.Query, maxShapeLen)
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
		if exemplar != nil {
			fs.exemplar = exemplar
		}
	}
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
		if e.Feedback {
			cur.Feedback = true
		}
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
	Exemplar   any               `json:"exemplar,omitempty"`
	LastSeen   time.Time         `json:"last_seen"`
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
			Exemplar:   fs.exemplar,
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

// FPLatency is one fingerprint's latency summary for the sampler's
// per-fingerprint time series.
type FPLatency struct {
	ID    string
	Count uint64
	P50Ms float64
	P95Ms float64
}

// Latencies returns the k most frequent fingerprints with their current
// latency quantiles (deterministic order: count desc, then id). Cheaper
// than Snapshot — no ring copy, no exemplars — so the sampler can call it
// every tick.
func (w *Workload) Latencies(k int) []FPLatency {
	if w == nil || k <= 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]FPLatency, 0, len(w.byFP))
	for _, fs := range w.byFP {
		out = append(out, FPLatency{
			ID:    fs.id,
			Count: fs.count,
			P50Ms: fs.lat.Quantile(0.50) * 1000,
			P95Ms: fs.lat.Quantile(0.95) * 1000,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
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
