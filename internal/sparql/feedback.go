package sparql

import (
	"sync"

	"rdfanalytics/internal/obs"
)

// Execution feedback for the cost-based planner. A FeedbackStore remembers,
// per query fingerprint, the *actual* (input, output) cardinality each scan
// site saw the last time that fingerprint ran, keyed by (pattern label,
// bound-variable context) — the pattern's canonical string plus the sorted
// names of its variables that arrived bound when it executed. The context
// half matters because a scan's selectivity is a function of which join
// variables arrive bound; the (input, output) pair matters because even at
// a fixed context the output scales with the input, so feedback is applied
// as an observed per-input-row selectivity, never as an absolute row count
// (see SiteActual). When the same fingerprint replans, observed
// selectivities override the cold graph-count estimates for
// matching contexts (a context miss falls back to the cold estimate),
// closing the q-error feedback loop: interactive sessions re-run the same
// query shapes every facet click, so the second click of a shape plans
// with true cardinalities — and successive runs accumulate the contexts of
// every order the planner explores until the plan reaches a fixed point.
//
// Entries are validated against the graph's mutation counter: any write
// moves the version and the whole store resets on the next observation or
// lookup, so seeded estimates can never describe a graph that no longer
// exists. The store is concurrency-safe; the evaluator takes one snapshot
// of its fingerprint's sites per query, so planning never holds the lock.

const (
	// maxFeedbackFingerprints bounds the per-fingerprint map; beyond it the
	// least-recently-touched fingerprint is evicted.
	maxFeedbackFingerprints = 512
)

var (
	feedbackHits   = obs.Default.Counter("rdfa_planner_feedback_hits_total")
	feedbackMisses = obs.Default.Counter("rdfa_planner_feedback_misses_total")
	feedbackSeeds  = obs.Default.Counter("rdfa_planner_feedback_seeds_total")
)

// FeedbackStore holds observed per-scan-site cardinalities keyed by query
// fingerprint, invalidated as a whole when the graph version moves. The
// zero value is not usable; call NewFeedbackStore. A nil *FeedbackStore is
// a valid no-op (lookups miss, observations are dropped).
type FeedbackStore struct {
	mu      sync.Mutex
	version uint64
	byFP    map[string]*fpFeedback
	clock   uint64 // LRU tick, bumped on every touch
	hits    uint64
	misses  uint64
	seeds   uint64
}

// SiteActual is one observed scan execution: the input binding count the
// scan ran over and the output it produced. The pair is what makes feedback
// transferable — Out/In is the site's per-input-row selectivity, so the
// planner can price the same (pattern, context) site at *any* candidate
// input cardinality instead of trusting an absolute row count observed at
// one position. (An absolute prediction is a trap: a pattern observed
// producing 16 rows from 1 input row also "produces 16 rows" when crossed
// against 2000 rows, which is exactly how a seeded planner talks itself
// into a cross product.)
type SiteActual struct {
	In, Out int64
}

// fpFeedback is the per-fingerprint site table: scan site key (label +
// "\x00" + bound-variable context) → observed (input, output) cardinality.
type fpFeedback struct {
	sites map[string]SiteActual
	tick  uint64
}

// NewFeedbackStore returns an empty feedback store.
func NewFeedbackStore() *FeedbackStore {
	return &FeedbackStore{byFP: map[string]*fpFeedback{}}
}

// Observe folds one finished query's plan-vs-actual rows into the store:
// every scan-operator estimate of ests that carries a bound-variable
// context records its actual cardinality under the fingerprint, keyed by
// (label, context). An estimate without a context could not be matched back
// to a plan step and is skipped (every scan the engine profiles carries
// one). graphVersion is the graph mutation counter the query ran at; a
// version different from the store's drops every seeded entry first (a
// mutated graph invalidates all remembered cardinalities).
func (f *FeedbackStore) Observe(fpID string, graphVersion uint64, ests []EstimateStat) {
	if f == nil || fpID == "" || len(ests) == 0 {
		return
	}
	recordable := false
	for _, e := range ests {
		if e.Op == "scan" && e.Label != "" && e.Ctx != "" {
			recordable = true
			break
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.resetIfStaleLocked(graphVersion)
	fe, ok := f.byFP[fpID]
	if !ok {
		if !recordable {
			return // nothing to seed; don't churn the LRU with empty entries
		}
		f.evictLocked()
		fe = &fpFeedback{sites: map[string]SiteActual{}}
		f.byFP[fpID] = fe
	}
	f.clock++
	fe.tick = f.clock
	for _, e := range ests {
		if e.Op != "scan" || e.Label == "" || e.Ctx == "" {
			continue
		}
		fe.sites[e.Label+"\x00"+e.Ctx] = SiteActual{In: e.ActualIn, Out: e.Actual}
	}
	if recordable {
		f.seeds++
		feedbackSeeds.Inc()
	}
}

// SiteActuals returns a copy of the fingerprint's observed scan-site
// (input, output) cardinalities, or nil when the store has nothing valid
// for it (unknown fingerprint, or the graph has mutated since the entries
// were seeded). The copy is the evaluator's per-query snapshot: planning
// and mid-query replanning read it without touching the store again.
func (f *FeedbackStore) SiteActuals(fpID string, graphVersion uint64) map[string]SiteActual {
	if f == nil || fpID == "" {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.resetIfStaleLocked(graphVersion)
	fe, ok := f.byFP[fpID]
	if !ok || len(fe.sites) == 0 {
		f.misses++
		feedbackMisses.Inc()
		return nil
	}
	f.hits++
	feedbackHits.Inc()
	f.clock++
	fe.tick = f.clock
	out := make(map[string]SiteActual, len(fe.sites))
	for k, v := range fe.sites {
		out[k] = v
	}
	return out
}

// resetIfStaleLocked drops every entry when the graph version moved.
// Caller holds f.mu.
func (f *FeedbackStore) resetIfStaleLocked(graphVersion uint64) {
	if f.version != graphVersion {
		f.version = graphVersion
		f.byFP = map[string]*fpFeedback{}
	}
}

// evictLocked removes the least-recently-touched fingerprint when the map
// is at capacity. Caller holds f.mu.
func (f *FeedbackStore) evictLocked() {
	if len(f.byFP) < maxFeedbackFingerprints {
		return
	}
	oldestKey, oldestTick := "", uint64(0)
	first := true
	for k, fe := range f.byFP {
		if first || fe.tick < oldestTick {
			oldestKey, oldestTick, first = k, fe.tick, false
		}
	}
	if oldestKey != "" {
		delete(f.byFP, oldestKey)
	}
}

// FeedbackStats is a point-in-time view of the store, surfaced by the
// dashboard's feedback card and GET /api/workload.
type FeedbackStats struct {
	// Fingerprints is the number of fingerprints currently holding seeded
	// estimates; Sites the total scan sites across them.
	Fingerprints int `json:"fingerprints"`
	Sites        int `json:"sites"`
	// Hits / Misses count SiteActuals lookups that found / did not find
	// valid seeded estimates.
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// Seeds counts Observe calls that recorded at least one site.
	Seeds uint64 `json:"seeds"`
	// Version is the graph mutation counter the entries are valid for.
	Version uint64 `json:"graph_version"`
}

// Stats returns the store's current statistics. Nil-safe.
func (f *FeedbackStore) Stats() FeedbackStats {
	if f == nil {
		return FeedbackStats{}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FeedbackStats{
		Fingerprints: len(f.byFP),
		Hits:         f.hits,
		Misses:       f.misses,
		Seeds:        f.seeds,
		Version:      f.version,
	}
	for _, fe := range f.byFP {
		st.Sites += len(fe.sites)
	}
	return st
}

// SeededFingerprints returns the set of fingerprint IDs currently holding
// valid seeded estimates (used by the dashboard to mark feedback-seeded
// rows). Nil-safe.
func (f *FeedbackStore) SeededFingerprints() map[string]bool {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]bool, len(f.byFP))
	for k := range f.byFP {
		out[k] = true
	}
	return out
}
