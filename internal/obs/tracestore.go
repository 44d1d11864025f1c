package obs

import (
	"encoding/json"
	"sort"
	"strings"
	"sync"
	"time"
)

// TraceStore is a bounded, concurrency-safe store of *completed* traces
// with tail-based sampling: the retention decision is made after the
// request finished, when its outcome and duration are known, instead of
// up-front like head sampling. The policy, in decision order:
//
//  1. error   — every trace that erred, timed out, or hit a resource
//     budget is retained (100%); these are exactly the traces an operator
//     goes looking for after an alert.
//  2. slowest — the slowest N completions per query fingerprint, so every
//     recurring query shape keeps its worst observed executions. A slower
//     newcomer evicts the fastest of them, so a shape holds at most N.
//  3. outlier — completions slower than OutlierFactor × the fingerprint's
//     rolling p95 (supplied by the workload profiler), catching latency
//     spikes on shapes whose slowest-N is already saturated with slower
//     historical runs.
//  4. residual — a deterministic 1-in-ResidualEvery sample of remaining
//     normal traffic, so healthy baseline executions stay inspectable.
//
// Everything else is dropped and accounted for. The store is bounded both
// by trace count and by approximate retained bytes; eviction removes the
// lowest-priority oldest trace first (residual before slowest/outlier
// before error), so errors are the last evidence to disappear.
//
// All methods are safe on a nil *TraceStore and do nothing, following the
// package's nil-off convention.
type TraceStore struct {
	cfg TraceStoreConfig

	mu     sync.Mutex
	byID   map[string]*retainedTrace
	list   []*retainedTrace // insertion (seq) order, oldest first
	fpSlow map[string][]time.Duration
	seq    uint64
	nth    uint64 // residual-sampling counter
	bytes  int64

	droppedSampled  uint64
	droppedEvicted  uint64
	droppedOversize uint64

	// cached metric handles for the hot (sampled-out) path
	mSampledOut *Counter
	mEvicted    *Counter
	mOversize   *Counter
}

// TraceStoreConfig tunes retention. The zero value means "enabled with
// defaults"; set Disabled to turn retention off entirely (NewTraceStore
// then returns nil, and every call on it is a no-op).
type TraceStoreConfig struct {
	Disabled bool
	// MaxTraces bounds the number of retained traces (default 512).
	MaxTraces int
	// MaxBytes bounds the approximate serialized size of retained traces
	// (default 8 MiB).
	MaxBytes int64
	// SlowestPerFingerprint is the N of the slowest-N rule (default 3).
	SlowestPerFingerprint int
	// OutlierFactor is the multiple of the fingerprint's rolling p95 above
	// which a completion counts as an outlier (default 2.0).
	OutlierFactor float64
	// ResidualEvery retains one in every ResidualEvery otherwise-unsampled
	// traces (default 50). Values < 1 disable the residual rule.
	ResidualEvery int
	// P95 reports the rolling p95 latency in seconds for a fingerprint
	// (ok=false when the fingerprint has no history yet). Typically wired
	// to the workload profiler. Called with the store lock held; the
	// callback must not call back into the store.
	P95 func(fingerprint string) (seconds float64, ok bool)
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
	Spans   SpanJSON `json:"spans"`
	Profile any      `json:"profile,omitempty"`
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
	profile       any
	serves        map[string]uint64
	bytes         int64
	seq           uint64
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

// NewTraceStore builds a store with cfg (zero fields take defaults), or
// returns nil when cfg.Disabled — the nil store is a valid no-op.
func NewTraceStore(cfg TraceStoreConfig) *TraceStore {
	if cfg.Disabled {
		return nil
	}
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
	s := &TraceStore{
		cfg:         cfg,
		byID:        make(map[string]*retainedTrace),
		fpSlow:      make(map[string][]time.Duration),
		mSampledOut: Default.Counter("rdfa_trace_dropped_total", "cause", DropSampledOut),
		mEvicted:    Default.Counter("rdfa_trace_dropped_total", "cause", DropEvicted),
		mOversize:   Default.Counter("rdfa_trace_dropped_total", "cause", DropOversize),
	}
	Default.GaugeFunc("rdfa_trace_store_traces", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.list))
	})
	Default.GaugeFunc("rdfa_trace_store_bytes", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.bytes)
	})
	return s
}

// Offer submits a finished operation's record for the retention decision.
// It returns the trace's ID and whether it was retained; a record without a
// Trace (a cache serve) is never retained. The decision itself is a few map
// lookups; the serialization cost of actually storing a trace is paid only
// for retained ones.
func (s *TraceStore) Offer(c QueryRecord) (id string, retained bool) {
	if s == nil || c.Trace == nil {
		return "", false
	}
	id = c.Trace.ID()
	if id == "" {
		id = NewTraceID()
		c.Trace.SetID(id)
	}

	s.mu.Lock()
	reason := s.decideLocked(c)
	if reason == "" {
		s.droppedSampled++
		s.mu.Unlock()
		s.mSampledOut.Inc()
		return id, false
	}
	s.mu.Unlock()

	// Export and size the trace outside the lock: span trees take their
	// own locks and serialization is the expensive part.
	rt := &retainedTrace{
		id:            id,
		kind:          c.Kind,
		fingerprintID: c.FingerprintID,
		shape:         TruncateText(c.Shape, maxStoredQueryLen),
		query:         TruncateText(c.Query, maxStoredQueryLen),
		requestID:     c.RequestID,
		outcome:       c.Outcome,
		cache:         c.Cache,
		err:           TruncateText(c.Err, maxStoredQueryLen),
		reason:        reason,
		duration:      c.Duration,
		when:          time.Now(),
		spans:         c.Trace.Export(),
		profile:       c.Profile,
	}
	rt.spans.TraceID = id
	rt.bytes = approxTraceBytes(rt)

	s.mu.Lock()
	s.insertLocked(rt)
	s.mu.Unlock()
	Default.Counter("rdfa_trace_retained_total", "reason", reason).Inc()
	return id, true
}

// decideLocked applies the tail-sampling policy and reserves slow-slot /
// residual-counter state for the record. Returns "" to drop.
func (s *TraceStore) decideLocked(c QueryRecord) string {
	if c.Outcome != "" && c.Outcome != "ok" {
		return ReasonError
	}
	if fp := c.FingerprintID; fp != "" {
		slow := s.fpSlow[fp]
		if len(slow) < s.cfg.SlowestPerFingerprint || c.Duration > slow[0] {
			return ReasonSlowest
		}
		if s.cfg.P95 != nil {
			if p95, ok := s.cfg.P95(fp); ok && p95 > 0 &&
				c.Duration.Seconds() > s.cfg.OutlierFactor*p95 {
				return ReasonOutlier
			}
		}
	}
	if s.cfg.ResidualEvery > 0 {
		s.nth++
		if s.nth%uint64(s.cfg.ResidualEvery) == 0 {
			return ReasonResidual
		}
	}
	return ""
}

// insertLocked stores rt, updates the slowest-N bookkeeping and evicts
// down to the configured bounds.
func (s *TraceStore) insertLocked(rt *retainedTrace) {
	if rt.reason == ReasonSlowest {
		// Exactly the slowest N stay: a newcomer that displaces the fastest
		// of them evicts that execution's trace, so a shape whose latency
		// drifts upward cannot fill the store with its slowest-so-far runs.
		if slow := s.fpSlow[rt.fingerprintID]; len(slow) >= s.cfg.SlowestPerFingerprint && rt.duration > slow[0] {
			for _, old := range s.list {
				if old.reason == ReasonSlowest && old.fingerprintID == rt.fingerprintID && old.duration == slow[0] {
					s.removeLocked(old, DropEvicted)
					break
				}
			}
		}
		slow := append(s.fpSlow[rt.fingerprintID], rt.duration)
		sort.Slice(slow, func(i, j int) bool { return slow[i] < slow[j] })
		if len(slow) > s.cfg.SlowestPerFingerprint {
			slow = slow[len(slow)-s.cfg.SlowestPerFingerprint:]
		}
		s.fpSlow[rt.fingerprintID] = slow
	}
	s.seq++
	rt.seq = s.seq
	s.byID[rt.id] = rt
	s.list = append(s.list, rt)
	s.bytes += rt.bytes
	for (len(s.list) > s.cfg.MaxTraces || s.bytes > s.cfg.MaxBytes) && len(s.list) > 0 {
		victim := s.pickVictimLocked()
		cause := DropEvicted
		if victim == rt {
			// The newcomer itself is the lowest-priority trace (or simply
			// larger than the whole byte budget): reject rather than churn.
			cause = DropOversize
		}
		s.removeLocked(victim, cause)
		if victim == rt {
			return
		}
	}
}

// pickVictimLocked returns the retained trace with the lowest
// (priority, seq) — the oldest trace of the least-protected class.
func (s *TraceStore) pickVictimLocked() *retainedTrace {
	var victim *retainedTrace
	for _, rt := range s.list {
		if victim == nil {
			victim = rt
			continue
		}
		vp, rp := evictPriority(victim.reason), evictPriority(rt.reason)
		if rp < vp || (rp == vp && rt.seq < victim.seq) {
			victim = rt
		}
	}
	return victim
}

func (s *TraceStore) removeLocked(rt *retainedTrace, cause string) {
	delete(s.byID, rt.id)
	for i, cur := range s.list {
		if cur == rt {
			s.list = append(s.list[:i], s.list[i+1:]...)
			break
		}
	}
	s.bytes -= rt.bytes
	if rt.reason == ReasonSlowest {
		slow := s.fpSlow[rt.fingerprintID]
		for i, d := range slow {
			if d == rt.duration {
				slow = append(slow[:i], slow[i+1:]...)
				break
			}
		}
		if len(slow) == 0 {
			delete(s.fpSlow, rt.fingerprintID)
		} else {
			s.fpSlow[rt.fingerprintID] = slow
		}
	}
	switch cause {
	case DropOversize:
		s.droppedOversize++
		s.mOversize.Inc()
	default:
		s.droppedEvicted++
		s.mEvicted.Inc()
	}
}

// approxTraceBytes estimates the serialized footprint of a retained trace
// for the byte bound. JSON size is what /api/traces will actually ship.
func approxTraceBytes(rt *retainedTrace) int64 {
	n := int64(len(rt.id) + len(rt.kind) + len(rt.fingerprintID) +
		len(rt.shape) + len(rt.query) + len(rt.requestID) + len(rt.err) + 128)
	if b, err := json.Marshal(rt.spans); err == nil {
		n += int64(len(b))
	}
	if rt.profile != nil {
		if b, err := json.Marshal(rt.profile); err == nil {
			n += int64(len(b))
		}
	}
	return n
}

// RecordServe counts a request served from this retained trace's cached
// answer (result is the X-Cache value: "hit", "stale", "collapsed"), so a
// trace explains not just its own execution but the traffic it answered.
func (s *TraceStore) RecordServe(id, result string) {
	if s == nil || id == "" || result == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rt, ok := s.byID[id]
	if !ok {
		return
	}
	if rt.serves == nil {
		rt.serves = make(map[string]uint64, 4)
	}
	rt.serves[result]++
}

// Contains reports whether id names a currently retained trace. The HTTP
// middleware uses it to attach exemplars only for trace IDs that will
// actually resolve.
func (s *TraceStore) Contains(id string) bool {
	if s == nil || id == "" {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.byID[id]
	return ok
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

// Search returns summaries of retained traces matching q, newest first.
func (s *TraceStore) Search(q TraceQuery) []TraceSummary {
	if s == nil {
		return nil
	}
	limit := q.Limit
	if limit <= 0 {
		limit = defaultSearchLimit
	}
	if limit > maxSearchLimit {
		limit = maxSearchLimit
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []TraceSummary
	for i := len(s.list) - 1; i >= 0 && len(out) < limit; i-- {
		rt := s.list[i]
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

// Get returns the full detail (span waterfall + profile) for a trace ID.
func (s *TraceStore) Get(id string) (TraceDetail, bool) {
	if s == nil {
		return TraceDetail{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rt, ok := s.byID[id]
	if !ok {
		return TraceDetail{}, false
	}
	return rt.detailLocked(), true
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

func (rt *retainedTrace) detailLocked() TraceDetail {
	return TraceDetail{
		TraceSummary: rt.summaryLocked(),
		Spans:        rt.spans,
		Profile:      rt.profile,
	}
}

// TraceStoreStats is the dashboard/accounting snapshot.
type TraceStoreStats struct {
	Retained        int            `json:"retained"`
	Bytes           int64          `json:"bytes"`
	ByReason        map[string]int `json:"by_reason,omitempty"`
	DroppedSampled  uint64         `json:"dropped_sampled_out"`
	DroppedEvicted  uint64         `json:"dropped_evicted"`
	DroppedOversize uint64         `json:"dropped_oversize"`
}

// Stats snapshots retention accounting.
func (s *TraceStore) Stats() TraceStoreStats {
	if s == nil {
		return TraceStoreStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := TraceStoreStats{
		Retained:        len(s.list),
		Bytes:           s.bytes,
		DroppedSampled:  s.droppedSampled,
		DroppedEvicted:  s.droppedEvicted,
		DroppedOversize: s.droppedOversize,
	}
	if len(s.list) > 0 {
		st.ByReason = make(map[string]int, 4)
		for _, rt := range s.list {
			st.ByReason[rt.reason]++
		}
	}
	return st
}
