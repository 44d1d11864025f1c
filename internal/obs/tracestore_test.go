package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// cand builds a completed-trace candidate for the sampler: a one-span
// trace plus the metadata the decision consumes.
func cand(fp string, dur time.Duration, outcome string) QueryRecord {
	tr := NewTrace("test")
	tr.Finish()
	c := QueryRecord{
		Trace:         tr,
		Kind:          "sparql",
		FingerprintID: fp,
		Shape:         "shape " + fp,
		Query:         "SELECT ?x WHERE { ?x ?p ?o }",
		Duration:      dur,
		Outcome:       outcome,
	}
	if outcome != "ok" {
		c.Err = "boom"
	}
	return c
}

func TestTraceStoreRetainsAllErrors(t *testing.T) {
	ts := NewTraceStore(TraceStoreConfig{ResidualEvery: -1})
	for i := 0; i < 20; i++ {
		outcome := "error"
		if i%3 == 1 {
			outcome = "timeout"
		}
		if i%3 == 2 {
			outcome = "budget"
		}
		id, retained := ts.Offer(cand("fpE", time.Millisecond, outcome))
		if !retained {
			t.Fatalf("error trace %d not retained", i)
		}
		d, ok := ts.Get(id)
		if !ok {
			t.Fatalf("retained trace %s not gettable", id)
		}
		if d.Reason != ReasonError {
			t.Fatalf("reason = %q, want %q", d.Reason, ReasonError)
		}
	}
	if st := ts.Stats(); st.Retained != 20 || st.ByReason[ReasonError] != 20 {
		t.Fatalf("stats = %+v, want 20 errors retained", st)
	}
}

func TestTraceStoreSlowestPerFingerprint(t *testing.T) {
	ts := NewTraceStore(TraceStoreConfig{SlowestPerFingerprint: 3, ResidualEvery: -1})
	// The first N of a fingerprint always qualify (nothing to compare to).
	for i, ms := range []int{10, 20, 30} {
		if _, retained := ts.Offer(cand("fpS", time.Duration(ms)*time.Millisecond, "ok")); !retained {
			t.Fatalf("seed %d not retained", i)
		}
	}
	// Faster than the current slowest set: sampled out.
	if _, retained := ts.Offer(cand("fpS", 5*time.Millisecond, "ok")); retained {
		t.Fatal("5ms retained but slowest set is {10,20,30}")
	}
	// Slower than the set's minimum: replaces it in the bookkeeping.
	id, retained := ts.Offer(cand("fpS", 40*time.Millisecond, "ok"))
	if !retained {
		t.Fatal("40ms not retained")
	}
	if d, _ := ts.Get(id); d.Reason != ReasonSlowest {
		t.Fatalf("reason = %q, want %q", d.Reason, ReasonSlowest)
	}
	// The set is now {20,30,40}: 15ms is no longer slowest material.
	if _, retained := ts.Offer(cand("fpS", 15*time.Millisecond, "ok")); retained {
		t.Fatal("15ms retained but slowest set is {20,30,40}")
	}
	// A different fingerprint has its own fresh slowest budget.
	if _, retained := ts.Offer(cand("fpOther", time.Millisecond, "ok")); !retained {
		t.Fatal("first trace of a new fingerprint not retained")
	}
	st := ts.Stats()
	if st.DroppedSampled != 2 {
		t.Fatalf("DroppedSampled = %d, want 2", st.DroppedSampled)
	}
}

func TestTraceStoreOutlier(t *testing.T) {
	ts := NewTraceStore(TraceStoreConfig{
		SlowestPerFingerprint: 3,
		OutlierFactor:         2,
		ResidualEvery:         -1,
		P95: func(fp string) (float64, bool) {
			return 0.010, true // rolling p95 = 10ms
		},
	})
	// Saturate the slowest set with runs far above the outlier band.
	for _, ms := range []int{100, 200, 300} {
		ts.Offer(cand("fpO", time.Duration(ms)*time.Millisecond, "ok"))
	}
	// 30ms: not slowest (min of set is 100ms) but > 2×p95 → outlier.
	id, retained := ts.Offer(cand("fpO", 30*time.Millisecond, "ok"))
	if !retained {
		t.Fatal("outlier not retained")
	}
	if d, _ := ts.Get(id); d.Reason != ReasonOutlier {
		t.Fatalf("reason = %q, want %q", d.Reason, ReasonOutlier)
	}
	// 15ms: inside 2×p95 → sampled out.
	if _, retained := ts.Offer(cand("fpO", 15*time.Millisecond, "ok")); retained {
		t.Fatal("15ms retained but 2×p95 = 20ms")
	}
}

func TestTraceStoreResidual(t *testing.T) {
	ts := NewTraceStore(TraceStoreConfig{
		SlowestPerFingerprint: 1,
		ResidualEvery:         5,
		// Every fingerprint has history, so nothing is an outlier.
		P95: func(string) (float64, bool) { return 10, true },
	})
	// Saturate each fingerprint's slowest-1 slot.
	for i := 0; i < 3; i++ {
		ts.Offer(cand(fmt.Sprintf("fp%d", i), time.Second, "ok"))
	}
	retainedN := 0
	const offers = 25
	for i := 0; i < offers; i++ {
		_, retained := ts.Offer(cand(fmt.Sprintf("fp%d", i%3), time.Millisecond, "ok"))
		if retained {
			retainedN++
		}
	}
	if retainedN != offers/5 {
		t.Fatalf("residual retained %d of %d, want exactly 1 in 5", retainedN, offers)
	}
	for _, s := range ts.Search(TraceQuery{Reason: ReasonResidual}) {
		if s.Reason != ReasonResidual {
			t.Fatalf("search(reason=residual) returned %q", s.Reason)
		}
	}
}

func TestTraceStoreEvictionPriority(t *testing.T) {
	ts := NewTraceStore(TraceStoreConfig{MaxTraces: 4, SlowestPerFingerprint: 1, ResidualEvery: 1})
	errID, _ := ts.Offer(cand("fpA", time.Millisecond, "error"))
	slowID, _ := ts.Offer(cand("fpB", time.Second, "ok"))
	res1, _ := ts.Offer(cand("fpB", time.Millisecond, "ok")) // residual (slot taken)
	res2, _ := ts.Offer(cand("fpB", time.Millisecond, "ok")) // residual
	if ts.Stats().Retained != 4 {
		t.Fatalf("setup: retained = %d, want 4", ts.Stats().Retained)
	}
	// A fifth trace evicts the oldest residual first — never the error.
	ts.Offer(cand("fpC", time.Second, "ok"))
	if ts.Contains(res1) {
		t.Fatal("oldest residual survived eviction")
	}
	for _, id := range []string{errID, slowID, res2} {
		if !ts.Contains(id) {
			t.Fatalf("trace %s evicted before the lower-priority residual", id)
		}
	}
	// Keep pushing errors: the remaining residual and the slowest traces
	// are evicted before any error is touched.
	for i := 0; i < 3; i++ {
		ts.Offer(cand(fmt.Sprintf("fpErr%d", i), time.Millisecond, "error"))
	}
	if !ts.Contains(errID) {
		t.Fatal("error trace evicted while lower-priority traces remained")
	}
	if ts.Contains(res2) || ts.Contains(slowID) {
		t.Fatal("residual/slowest survived while errors needed room")
	}
	st := ts.Stats()
	if st.Retained != 4 {
		t.Fatalf("retained = %d, want bound 4", st.Retained)
	}
	if st.DroppedEvicted == 0 {
		t.Fatal("eviction not accounted in DroppedEvicted")
	}
}

func TestTraceStoreOversizeNewcomer(t *testing.T) {
	ts := NewTraceStore(TraceStoreConfig{MaxTraces: 2, SlowestPerFingerprint: 1, ResidualEvery: 1})
	ts.Offer(cand("fpA", time.Millisecond, "error"))
	ts.Offer(cand("fpB", time.Millisecond, "error"))
	// The store is full of errors; a residual newcomer is itself the
	// lowest-priority trace and must be rejected, not churn the errors.
	id, retained := ts.Offer(cand("fpA", time.Nanosecond, "ok"))
	if retained && ts.Contains(id) {
		t.Fatal("low-priority newcomer displaced a retained error")
	}
	st := ts.Stats()
	if st.DroppedOversize != 1 {
		t.Fatalf("DroppedOversize = %d, want 1", st.DroppedOversize)
	}
	if st.Retained != 2 || st.ByReason[ReasonError] != 2 {
		t.Fatalf("errors disturbed: %+v", st)
	}
}

func TestTraceStoreByteBound(t *testing.T) {
	ts := NewTraceStore(TraceStoreConfig{MaxBytes: 4096, SlowestPerFingerprint: 1, ResidualEvery: -1})
	for i := 0; i < 100; i++ {
		ts.Offer(cand(fmt.Sprintf("fp%d", i), time.Millisecond, "ok"))
	}
	st := ts.Stats()
	if st.Bytes > 4096 {
		t.Fatalf("retained bytes %d exceed bound 4096", st.Bytes)
	}
	if st.Retained == 0 {
		t.Fatal("byte bound evicted everything")
	}
	if st.DroppedEvicted == 0 {
		t.Fatal("byte-pressure evictions not accounted")
	}
}

func TestTraceStoreSearchFilters(t *testing.T) {
	ts := NewTraceStore(TraceStoreConfig{ResidualEvery: -1})
	ts.Offer(cand("fpX", 5*time.Millisecond, "ok"))
	ts.Offer(cand("fpX", 50*time.Millisecond, "timeout"))
	ts.Offer(cand("fpY", 500*time.Millisecond, "ok"))

	if got := len(ts.Search(TraceQuery{Fingerprint: "fpX"})); got != 2 {
		t.Fatalf("fingerprint filter: got %d, want 2", got)
	}
	if got := len(ts.Search(TraceQuery{MinDuration: 100 * time.Millisecond})); got != 1 {
		t.Fatalf("min-duration filter: got %d, want 1", got)
	}
	if got := ts.Search(TraceQuery{Outcome: "timeout"}); len(got) != 1 || got[0].Err == "" {
		t.Fatalf("outcome filter: got %+v", got)
	}
	// Newest first.
	all := ts.Search(TraceQuery{})
	if len(all) != 3 || all[0].FingerprintID != "fpY" {
		t.Fatalf("search order: %+v", all)
	}
	if got := len(ts.Search(TraceQuery{Limit: 2})); got != 2 {
		t.Fatalf("limit: got %d, want 2", got)
	}
	// Unknown ID.
	if _, ok := ts.Get("nope"); ok {
		t.Fatal("Get of unknown id succeeded")
	}
}

func TestTraceStoreRecordServe(t *testing.T) {
	ts := NewTraceStore(TraceStoreConfig{ResidualEvery: -1})
	id, _ := ts.Offer(cand("fpZ", time.Millisecond, "ok"))
	ts.RecordServe(id, "hit")
	ts.RecordServe(id, "hit")
	ts.RecordServe(id, "collapsed")
	ts.RecordServe("nope", "hit") // unknown id: no-op
	d, _ := ts.Get(id)
	if d.Serves["hit"] != 2 || d.Serves["collapsed"] != 1 {
		t.Fatalf("serves = %+v", d.Serves)
	}
}

func TestTraceStoreNilSafe(t *testing.T) {
	var ts *TraceStore
	if _, retained := ts.Offer(cand("fp", time.Second, "error")); retained {
		t.Fatal("nil store retained")
	}
	ts.RecordServe("x", "hit")
	if ts.Contains("x") || ts.Search(TraceQuery{}) != nil {
		t.Fatal("nil store claims contents")
	}
	if _, ok := ts.Get("x"); ok {
		t.Fatal("nil Get ok")
	}
	if st := ts.Stats(); st.Retained != 0 {
		t.Fatal("nil Stats non-zero")
	}
	if NewTraceStore(TraceStoreConfig{Disabled: true}) != nil {
		t.Fatal("Disabled config did not return nil store")
	}
}

// TestTraceStoreConcurrent hammers retain/search/get/evict from many
// goroutines; run with -race (make check does) to verify the locking.
func TestTraceStoreConcurrent(t *testing.T) {
	ts := NewTraceStore(TraceStoreConfig{
		MaxTraces:             64,
		SlowestPerFingerprint: 2,
		ResidualEvery:         3,
		P95:                   func(string) (float64, bool) { return 0.001, true },
	})
	var wg sync.WaitGroup
	var ids sync.Map
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				outcome := "ok"
				if i%7 == 0 {
					outcome = "error"
				}
				fp := fmt.Sprintf("fp%d", (g+i)%5)
				id, retained := ts.Offer(cand(fp, time.Duration(i%20)*time.Millisecond, outcome))
				if retained {
					ids.Store(id, true)
					ts.RecordServe(id, "hit")
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ts.Search(TraceQuery{Fingerprint: fmt.Sprintf("fp%d", i%5)})
				ts.Stats()
				ids.Range(func(k, _ any) bool {
					ts.Get(k.(string))
					ts.Contains(k.(string))
					return i%10 != 0
				})
			}
		}()
	}
	wg.Wait()
	st := ts.Stats()
	if st.Retained > 64 {
		t.Fatalf("bound violated: retained = %d", st.Retained)
	}
	if got := len(ts.Search(TraceQuery{Limit: 500})); got != st.Retained {
		t.Fatalf("search sees %d traces, stats say %d", got, st.Retained)
	}
}

// BenchmarkTailSamplerDecision measures the hot path of a busy server: a
// trace offered and sampled out (the overwhelming majority of traffic).
func BenchmarkTailSamplerDecision(b *testing.B) {
	ts := NewTraceStore(TraceStoreConfig{
		SlowestPerFingerprint: 3,
		ResidualEvery:         -1,
		P95:                   func(string) (float64, bool) { return 10, true },
	})
	// Saturate the fingerprint's slowest set so later offers are declined.
	for _, ms := range []int{100, 200, 300} {
		ts.Offer(cand("fpB", time.Duration(ms)*time.Millisecond, "ok"))
	}
	c := cand("fpB", time.Millisecond, "ok")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts.Offer(c)
	}
}
