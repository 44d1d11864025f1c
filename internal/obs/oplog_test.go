package obs

import (
	"encoding/json"
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

// offer records c and returns its trace's ID and whether the log holds the
// trace afterwards.
func offer(l *OpLog, c QueryRecord) (id string, retained bool) {
	l.Record(c)
	id = c.Trace.ID()
	return id, l.Contains(id)
}

// serve builds the record of a cache serve of the answer trace id filled.
func serve(id, cache string) QueryRecord {
	return QueryRecord{Kind: "sparql", FingerprintID: "fpServe", Outcome: "ok", Cache: cache, TraceID: id}
}

func TestTraceStoreRetainsAllErrors(t *testing.T) {
	ts := NewOpLog(TraceStoreConfig{ResidualEvery: -1}, 0, nil)
	for i := 0; i < 20; i++ {
		outcome := "error"
		if i%3 == 1 {
			outcome = "timeout"
		}
		if i%3 == 2 {
			outcome = "budget"
		}
		id, retained := offer(ts, cand("fpE", time.Millisecond, outcome))
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
	if st := ts.TraceStats(); st.Retained != 20 || st.ByReason[ReasonError] != 20 {
		t.Fatalf("stats = %+v, want 20 errors retained", st)
	}
}

func TestTraceStoreSlowestPerFingerprint(t *testing.T) {
	ts := NewOpLog(TraceStoreConfig{SlowestPerFingerprint: 3, ResidualEvery: -1}, 0, nil)
	// The first N of a fingerprint always qualify (nothing to compare to).
	for i, ms := range []int{10, 20, 30} {
		if _, retained := offer(ts, cand("fpS", time.Duration(ms)*time.Millisecond, "ok")); !retained {
			t.Fatalf("seed %d not retained", i)
		}
	}
	// Faster than the current slowest set: sampled out.
	if _, retained := offer(ts, cand("fpS", 5*time.Millisecond, "ok")); retained {
		t.Fatal("5ms retained but slowest set is {10,20,30}")
	}
	// Slower than the set's minimum: replaces it in the bookkeeping.
	id, retained := offer(ts, cand("fpS", 40*time.Millisecond, "ok"))
	if !retained {
		t.Fatal("40ms not retained")
	}
	if d, _ := ts.Get(id); d.Reason != ReasonSlowest {
		t.Fatalf("reason = %q, want %q", d.Reason, ReasonSlowest)
	}
	// The set is now {20,30,40}: 15ms is no longer slowest material.
	if _, retained := offer(ts, cand("fpS", 15*time.Millisecond, "ok")); retained {
		t.Fatal("15ms retained but slowest set is {20,30,40}")
	}
	// A different fingerprint has its own fresh slowest budget.
	if _, retained := offer(ts, cand("fpOther", time.Millisecond, "ok")); !retained {
		t.Fatal("first trace of a new fingerprint not retained")
	}
	st := ts.TraceStats()
	if st.DroppedSampled != 2 {
		t.Fatalf("DroppedSampled = %d, want 2", st.DroppedSampled)
	}
}

func TestTraceStoreOutlier(t *testing.T) {
	ts := NewOpLog(TraceStoreConfig{
		SlowestPerFingerprint: 3,
		OutlierFactor:         2,
		ResidualEvery:         -1,
	}, 0, nil)
	// Saturate the slowest set with runs far above the outlier band.
	for _, ms := range []int{100, 200, 300} {
		offer(ts, cand("fpO", time.Duration(ms)*time.Millisecond, "ok"))
	}
	// A baseline of 10ms runs puts the shape's p95 just under 10ms; none of
	// them is an outlier on the way there.
	for i := 0; i < 100; i++ {
		if _, retained := offer(ts, cand("fpO", 10*time.Millisecond, "ok")); retained {
			t.Fatalf("baseline run %d retained", i)
		}
	}
	// 30ms: not slowest (min of set is 100ms) but > 2×p95 → outlier.
	id, retained := offer(ts, cand("fpO", 30*time.Millisecond, "ok"))
	if !retained {
		t.Fatal("outlier not retained")
	}
	if d, _ := ts.Get(id); d.Reason != ReasonOutlier {
		t.Fatalf("reason = %q, want %q", d.Reason, ReasonOutlier)
	}
	// 15ms: inside 2×p95 → sampled out.
	if _, retained := offer(ts, cand("fpO", 15*time.Millisecond, "ok")); retained {
		t.Fatal("15ms retained but 2×p95 ≈ 20ms")
	}
}

func TestTraceStoreResidual(t *testing.T) {
	ts := NewOpLog(TraceStoreConfig{
		SlowestPerFingerprint: 1,
		ResidualEvery:         5,
	}, 0, nil)
	// Saturate each fingerprint's slowest-1 slot; its 1s run keeps the
	// shape's p95 far above the 1ms runs, so none is an outlier.
	for i := 0; i < 3; i++ {
		offer(ts, cand(fmt.Sprintf("fp%d", i), time.Second, "ok"))
	}
	retainedN := 0
	const offers = 25
	for i := 0; i < offers; i++ {
		_, retained := offer(ts, cand(fmt.Sprintf("fp%d", i%3), time.Millisecond, "ok"))
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
	ts := NewOpLog(TraceStoreConfig{MaxTraces: 4, SlowestPerFingerprint: 1, ResidualEvery: 1}, 0, nil)
	errID, _ := offer(ts, cand("fpA", time.Millisecond, "error"))
	slowID, _ := offer(ts, cand("fpB", time.Second, "ok"))
	res1, _ := offer(ts, cand("fpB", time.Millisecond, "ok")) // residual (slot taken)
	res2, _ := offer(ts, cand("fpB", time.Millisecond, "ok")) // residual
	if ts.TraceStats().Retained != 4 {
		t.Fatalf("setup: retained = %d, want 4", ts.TraceStats().Retained)
	}
	// A fifth trace evicts the oldest residual first — never the error.
	offer(ts, cand("fpC", time.Second, "ok"))
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
		offer(ts, cand(fmt.Sprintf("fpErr%d", i), time.Millisecond, "error"))
	}
	if !ts.Contains(errID) {
		t.Fatal("error trace evicted while lower-priority traces remained")
	}
	if ts.Contains(res2) || ts.Contains(slowID) {
		t.Fatal("residual/slowest survived while errors needed room")
	}
	st := ts.TraceStats()
	if st.Retained != 4 {
		t.Fatalf("retained = %d, want bound 4", st.Retained)
	}
	if st.DroppedEvicted == 0 {
		t.Fatal("eviction not accounted in DroppedEvicted")
	}
}

func TestTraceStoreOversizeNewcomer(t *testing.T) {
	ts := NewOpLog(TraceStoreConfig{MaxTraces: 2, SlowestPerFingerprint: 1, ResidualEvery: 1}, 0, nil)
	offer(ts, cand("fpA", time.Millisecond, "error"))
	offer(ts, cand("fpB", time.Millisecond, "error"))
	// The store is full of errors; a residual newcomer is itself the
	// lowest-priority trace and must be rejected, not churn the errors.
	id, retained := offer(ts, cand("fpA", time.Nanosecond, "ok"))
	if retained && ts.Contains(id) {
		t.Fatal("low-priority newcomer displaced a retained error")
	}
	st := ts.TraceStats()
	if st.DroppedOversize != 1 {
		t.Fatalf("DroppedOversize = %d, want 1", st.DroppedOversize)
	}
	if st.Retained != 2 || st.ByReason[ReasonError] != 2 {
		t.Fatalf("errors disturbed: %+v", st)
	}
}

func TestTraceStoreByteBound(t *testing.T) {
	ts := NewOpLog(TraceStoreConfig{MaxBytes: 4096, SlowestPerFingerprint: 1, ResidualEvery: -1}, 0, nil)
	for i := 0; i < 100; i++ {
		offer(ts, cand(fmt.Sprintf("fp%d", i), time.Millisecond, "ok"))
	}
	st := ts.TraceStats()
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
	ts := NewOpLog(TraceStoreConfig{ResidualEvery: -1}, 0, nil)
	offer(ts, cand("fpX", 5*time.Millisecond, "ok"))
	offer(ts, cand("fpX", 50*time.Millisecond, "timeout"))
	offer(ts, cand("fpY", 500*time.Millisecond, "ok"))

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
	ts := NewOpLog(TraceStoreConfig{ResidualEvery: -1}, 0, nil)
	id, _ := offer(ts, cand("fpZ", time.Millisecond, "ok"))
	ts.Record(serve(id, "hit"))
	ts.Record(serve(id, "hit"))
	ts.Record(serve(id, "collapsed"))
	ts.Record(serve("nope", "hit")) // unknown id: no tally
	d, _ := ts.Get(id)
	if d.Serves["hit"] != 2 || d.Serves["collapsed"] != 1 {
		t.Fatalf("serves = %+v", d.Serves)
	}
}

func TestTraceStoreNilSafe(t *testing.T) {
	var ts *OpLog
	if _, retained := offer(ts, cand("fp", time.Second, "error")); retained {
		t.Fatal("nil store retained")
	}
	ts.Record(serve("x", "hit"))
	if ts.Contains("x") || ts.Search(TraceQuery{}) != nil {
		t.Fatal("nil store claims contents")
	}
	if _, ok := ts.Get("x"); ok {
		t.Fatal("nil Get ok")
	}
	if st := ts.TraceStats(); st.Retained != 0 {
		t.Fatal("nil Stats non-zero")
	}
	off := NewOpLog(TraceStoreConfig{Disabled: true}, 0, nil)
	if off.Retains() {
		t.Fatal("Disabled config did not turn retention off")
	}
	// Disabled turns off retention only: the workload view still records.
	if _, retained := offer(off, cand("fp", time.Second, "error")); retained || off.Snapshot().Total != 1 {
		t.Fatalf("disabled log: retained %v, total %d", retained, off.Snapshot().Total)
	}
}

// TestTraceStoreConcurrent hammers retain/search/get/evict from many
// goroutines; run with -race (make check does) to verify the locking.
func TestTraceStoreConcurrent(t *testing.T) {
	ts := NewOpLog(TraceStoreConfig{
		MaxTraces:             64,
		SlowestPerFingerprint: 2,
		ResidualEvery:         3,
	}, 0, nil)
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
				id, retained := offer(ts, cand(fp, time.Duration(i%20)*time.Millisecond, outcome))
				if retained {
					ids.Store(id, true)
					ts.Record(serve(id, "hit"))
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
				ts.TraceStats()
				ts.Snapshot()
				ids.Range(func(k, _ any) bool {
					ts.Get(k.(string))
					ts.Contains(k.(string))
					return i%10 != 0
				})
			}
		}()
	}
	wg.Wait()
	st := ts.TraceStats()
	if st.Retained > 64 {
		t.Fatalf("bound violated: retained = %d", st.Retained)
	}
	if got := len(ts.Search(TraceQuery{Limit: 500})); got != st.Retained {
		t.Fatalf("search sees %d traces, stats say %d", got, st.Retained)
	}
}

// TestShapeEvictionTakesItsSlowest cycles 600 shapes through the log, past
// its 512 live fingerprints: evicting a shape's entry evicts its slowest
// traces, so no shape ever holds more than N of them, and a returning
// shape's first execution is retained as a new shape's would be.
func TestShapeEvictionTakesItsSlowest(t *testing.T) {
	const n, shapes = 2, 600
	l := NewOpLog(TraceStoreConfig{SlowestPerFingerprint: n, ResidualEvery: -1, MaxTraces: 4 * shapes, MaxBytes: 1 << 30}, 0, nil)
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	tick := 0
	record := func(fp string, d time.Duration) bool {
		tick++
		c := cand(fp, d, "ok")
		c.When = base.Add(time.Duration(tick) * time.Second)
		_, retained := offer(l, c)
		return retained
	}
	for i := 0; i < shapes; i++ {
		for _, ms := range []int{10, 20, 30} { // the third displaces the first
			record(fmt.Sprintf("fp%d", i), time.Duration(ms)*time.Millisecond)
		}
	}
	// Each shape of the second round was evicted by the time it returns;
	// its 1ms run would not beat a floor of 20ms.
	for i := 0; i < shapes; i++ {
		if !record(fmt.Sprintf("fp%d", i), time.Millisecond) {
			t.Fatalf("returning shape fp%d: first execution not retained", i)
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	per := map[string]int{}
	for _, rt := range l.list {
		if rt.reason == ReasonSlowest {
			per[rt.fingerprintID]++
		}
	}
	for fp, c := range per {
		if c > n {
			t.Errorf("%s holds %d slowest traces, want at most %d", fp, c, n)
		}
	}
	if len(l.shapes) != maxFingerprints {
		t.Errorf("%d live shapes, want %d", len(l.shapes), maxFingerprints)
	}
	for _, e := range l.shapes {
		if len(e.slowest) != per[e.id] {
			t.Errorf("%s: floor of %d durations, %d slowest traces", e.id, len(e.slowest), per[e.id])
		}
	}
}

// TestRecordAllocs: in steady state, recording a profiled execution whose
// trace is sampled out and recording a cache serve allocate nothing.
func TestRecordAllocs(t *testing.T) {
	l := NewOpLog(TraceStoreConfig{ResidualEvery: -1}, 0, nil)
	filler, _ := offer(l, cand("fpA", time.Second, "ok"))
	for _, ms := range []int{100, 200} {
		offer(l, cand("fpA", time.Duration(ms)*time.Millisecond, "ok"))
	}
	exec := cand("fpA", time.Millisecond, "ok")
	exec.Profile = &rowsProfile{rows: []OpEstimate{{Op: "scan", Label: "?s <p> ?o .", Est: 100, Actual: 10, QError: 10}}}
	hit := serve(filler, "hit")
	l.Record(exec) // mints the trace's ID
	l.Record(hit)  // makes the filler's serve tally
	if _, retained := offer(l, exec); retained {
		t.Fatal("setup: the execution is retained")
	}
	if n := testing.AllocsPerRun(200, func() { l.Record(exec) }); n != 0 {
		t.Errorf("a sampled-out execution allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { l.Record(hit) }); n != 0 {
		t.Errorf("a cache serve allocates %v times, want 0", n)
	}
	if d, _ := l.Get(filler); d.Serves["hit"] < 200 {
		t.Errorf("serves = %v", d.Serves)
	}
}

// BenchmarkTailSamplerDecision measures the hot path of a busy server: an
// execution recorded and its trace sampled out (the overwhelming majority
// of traffic).
func BenchmarkTailSamplerDecision(b *testing.B) {
	ts := NewOpLog(TraceStoreConfig{
		SlowestPerFingerprint: 3,
		ResidualEvery:         -1,
	}, 0, nil)
	// Saturate the fingerprint's slowest set so later offers are declined.
	for _, ms := range []int{100, 200, 300} {
		offer(ts, cand("fpB", time.Duration(ms)*time.Millisecond, "ok"))
	}
	c := cand("fpB", time.Millisecond, "ok")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts.Record(c)
	}
}

func wlRec(fp string, d time.Duration, outcome string, when time.Time) QueryRecord {
	return QueryRecord{
		FingerprintID: fp,
		Shape:         "select ?v1 {?v1 $ $}",
		Kind:          "sparql",
		Query:         "SELECT ?s WHERE { ?s <p> 1 }",
		Duration:      d,
		Rows:          10,
		Outcome:       outcome,
		When:          when,
	}
}

func TestWorkloadAggregates(t *testing.T) {
	w := NewOpLog(TraceStoreConfig{}, 0, nil)
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		w.Record(wlRec("fpA", 10*time.Millisecond, "ok", base.Add(time.Duration(i)*time.Second)))
	}
	worst := wlRec("fpA", 200*time.Millisecond, "timeout", base.Add(10*time.Second))
	worst.TraceID = "worst-trace"
	w.Record(worst)
	w.Record(wlRec("fpB", 1*time.Millisecond, "ok", base))
	snap := w.Snapshot()
	if snap.Total != 7 || snap.Errors != 1 {
		t.Fatalf("total/errors = %d/%d, want 7/1", snap.Total, snap.Errors)
	}
	if len(snap.Fingerprints) != 2 {
		t.Fatalf("fingerprints = %d, want 2", len(snap.Fingerprints))
	}
	// Most frequent first.
	a := snap.Fingerprints[0]
	if a.ID != "fpA" || a.Count != 6 {
		t.Fatalf("first fingerprint = %s count %d, want fpA count 6", a.ID, a.Count)
	}
	if a.Outcomes["ok"] != 5 || a.Outcomes["timeout"] != 1 {
		t.Fatalf("outcomes = %v", a.Outcomes)
	}
	if a.P95Ms < a.P50Ms || a.P50Ms <= 0 {
		t.Fatalf("quantiles broken: p50=%v p95=%v", a.P50Ms, a.P95Ms)
	}
	// The worst-case run names its trace.
	if a.WorstTrace != "worst-trace" || a.WorstMs < 100 {
		t.Fatalf("worst-case trace not named: worst=%vms trace=%q", a.WorstMs, a.WorstTrace)
	}
	// Snapshot must be JSON-marshalable as served by /api/workload.
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot not marshalable: %v", err)
	}
}

func TestWorkloadRingWraps(t *testing.T) {
	w := NewOpLog(TraceStoreConfig{}, 0, nil)
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	const n = recentOps + 24
	for i := 0; i < n; i++ {
		w.Record(wlRec(fmt.Sprintf("fp%d", i), time.Millisecond, "ok", base.Add(time.Duration(i)*time.Second)))
	}
	snap := w.Snapshot()
	if len(snap.Recent) != recentOps {
		t.Fatalf("recent = %d, want ring size %d", len(snap.Recent), recentOps)
	}
	// Newest first.
	if first, last := snap.Recent[0].FingerprintID, snap.Recent[recentOps-1].FingerprintID; first != fmt.Sprintf("fp%d", n-1) || last != "fp24" {
		t.Fatalf("ring order wrong: first=%s last=%s", first, last)
	}
	if snap.Total != n {
		t.Fatalf("total = %d, want %d (ring wrap must not reset totals)", snap.Total, n)
	}
}

func TestWorkloadFingerprintEviction(t *testing.T) {
	w := NewOpLog(TraceStoreConfig{}, 0, nil)
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	for i := 0; i < maxFingerprints+50; i++ {
		w.Record(wlRec(fmt.Sprintf("fp%d", i), time.Millisecond, "ok", base.Add(time.Duration(i)*time.Second)))
	}
	if n := len(w.Snapshot().Fingerprints); n != maxFingerprints {
		t.Fatalf("fingerprint map = %d entries, want bounded at %d", n, maxFingerprints)
	}
	// The oldest entries are the evicted ones.
	for _, fs := range w.Snapshot().Fingerprints {
		if fs.ID == "fp0" {
			t.Fatal("least-recently-seen fingerprint fp0 survived eviction")
		}
	}
}

// rowsProfile is an operator profile that is only its plan-vs-actual rows.
type rowsProfile struct {
	rows  []OpEstimate
	label []byte
}

func (p *rowsProfile) MarshalJSON() ([]byte, error) { return []byte(`{}`), nil }
func (p *rowsProfile) Summary() string              { return "" }

func (p *rowsProfile) EachEstimate(sink EstimateSink) {
	for _, e := range p.rows {
		p.label = append(p.label[:0], e.Label...)
		e.Label = ""
		sink.Estimate(e, p.label)
	}
}

// TestRecordEstimatesConcurrently: records whose profiles' rows go through
// the log's spare batch from several goroutines at once each count once.
func TestRecordEstimatesConcurrently(t *testing.T) {
	l := NewOpLog(TraceStoreConfig{Disabled: true}, 0, nil)
	const workers, each = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prof := &rowsProfile{rows: []OpEstimate{
				{Op: "scan", Label: "?s <p> ?o .", Est: 100, Actual: 10, QError: 10},
				{Op: "scan", Label: fmt.Sprintf("?s <w%d> ?o .", w), Est: 1, Actual: 1, QError: 1},
			}}
			for i := 0; i < each; i++ {
				l.Record(QueryRecord{FingerprintID: "fp", Outcome: "ok", Profile: prof})
			}
		}()
	}
	wg.Wait()
	counts := map[string]uint64{}
	for _, e := range l.Snapshot().Misestimates {
		counts[e.Label] = e.Count
	}
	if len(counts) != workers+1 || counts["?s <p> ?o ."] != workers*each || counts["?s <w3> ?o ."] != each {
		t.Fatalf("misestimate counts %v: want %d for the shared site and %d for each worker's", counts, workers*each, each)
	}
}

func TestWorkloadMisestimates(t *testing.T) {
	w := NewOpLog(TraceStoreConfig{}, 0, nil)
	w.Record(QueryRecord{Profile: &rowsProfile{rows: []OpEstimate{
		{Op: "scan", Label: "?s <p> ?o .", Est: 100, Actual: 10, QError: 10},
		{Op: "scan", Label: "?s <q> ?o .", Est: 50, Actual: 50, QError: 1},
	}}})
	// Same site again, worse: q-error and est/act update, count accumulates.
	w.Record(QueryRecord{Profile: &rowsProfile{rows: []OpEstimate{
		{Op: "scan", Label: "?s <p> ?o .", Est: 100, Actual: 1, QError: 100},
	}}})
	snap := w.Snapshot()
	if len(snap.Misestimates) != 2 {
		t.Fatalf("misestimates = %d, want 2", len(snap.Misestimates))
	}
	top := snap.Misestimates[0]
	if top.QError != 100 || top.Actual != 1 || top.Count != 2 {
		t.Fatalf("worst site not updated: %+v", top)
	}
	// The table stays bounded, displacing only less-bad entries.
	var batch []OpEstimate
	for i := 0; i < maxMisestimates+20; i++ {
		batch = append(batch, OpEstimate{Op: "scan", Label: fmt.Sprintf("p%d", i), QError: float64(i)})
	}
	w.Record(QueryRecord{Profile: &rowsProfile{rows: batch}})
	snap = w.Snapshot()
	if len(snap.Misestimates) != maxMisestimates {
		t.Fatalf("misestimate table = %d, want bounded at %d", len(snap.Misestimates), maxMisestimates)
	}
	if snap.Misestimates[0].QError != 100 {
		t.Fatalf("worst entry displaced: %+v", snap.Misestimates[0])
	}
}

func TestWorkloadNilAndTopSlow(t *testing.T) {
	var w *OpLog
	w.Record(QueryRecord{})
	w.Record(QueryRecord{Profile: &rowsProfile{rows: []OpEstimate{{QError: 2}}}})
	if snap := w.Snapshot(); snap.Total != 0 {
		t.Fatal("nil workload must be inert")
	}
	ww := NewOpLog(TraceStoreConfig{}, 0, nil)
	base := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	ww.Record(wlRec("slow", 500*time.Millisecond, "ok", base))
	ww.Record(wlRec("fast", time.Millisecond, "ok", base))
	top := ww.Snapshot().TopSlow(1)
	if len(top) != 1 || top[0].ID != "slow" {
		t.Fatalf("TopSlow = %+v", top)
	}
}

func TestTruncateText(t *testing.T) {
	if got := TruncateText("short", 100); got != "short" {
		t.Errorf("short text modified: %q", got)
	}
	long := ""
	for i := 0; i < 100; i++ {
		long += "é" // 2 bytes each
	}
	got := TruncateText(long, 101) // falls inside a rune
	if len(got) > 101+len("…") {
		t.Errorf("truncated to %d bytes, want <= %d", len(got), 101+len("…"))
	}
	for _, r := range got {
		if r == '�' {
			t.Error("truncation split a rune")
		}
	}
}
