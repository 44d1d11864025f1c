package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"time"

	"rdfanalytics/internal/core"
	"rdfanalytics/internal/facet"
	"rdfanalytics/internal/hifun"
	"rdfanalytics/internal/obs"
	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/resilience"
	"rdfanalytics/internal/server"
	"rdfanalytics/internal/sparql"
)

// perLayer lists every per-layer metric with its unit, in report order. A
// layer a workload never calls reports 0. The e2e.* rows are the end-to-end
// timings, workload-wide and per class; they live here because a bounded
// end-to-end metric has to repeat (see timingSpec) and exist on every
// workload, and a timing does not repeat and a class does not exist on all.
var perLayer = []metricSpec{
	{Name: "e2e.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.p90_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "e2e.click_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.click_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.run_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.run_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.sparql_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.sparql_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.update_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.update_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.restart_s", Unit: "s", Better: "lower"},
	{Name: "e2e.fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "datagen.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "rdf.materialize_ms", Unit: "ms", Better: "lower"},
	{Name: "rdf.match_ns_per_triple", Unit: "ns", Better: "lower"},
	{Name: "rdf.add_us_per_triple", Unit: "us", Better: "lower"},
	{Name: "rdf.index_scans_per_op", Unit: "count", Better: "lower"},
	{Name: "rdf.cardcache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "rdf.live_bytes_per_triple", Unit: "B", Better: "lower"},
	{Name: "sparql.parse_us", Unit: "us", Better: "lower"},
	{Name: "sparql.exec_ms", Unit: "ms", Better: "lower"},
	{Name: "sparql.exec_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "sparql.exec_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "sparql.exec_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "sparql.sort_ms", Unit: "ms", Better: "lower"},
	{Name: "sparql.serialize_ms", Unit: "ms", Better: "lower"},
	{Name: "sparql.serialize_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "sparql.rows_per_op", Unit: "count", Better: "lower"},
	{Name: "sparql.scan_rows_per_result_row", Unit: "ratio", Better: "lower"},
	{Name: "sparql.max_qerror", Unit: "ratio", Better: "lower"},
	{Name: "sparql.update_apply_ms", Unit: "ms", Better: "lower"},
	{Name: "hifun.parse_us", Unit: "us", Better: "lower"},
	{Name: "hifun.translate_us", Unit: "us", Better: "lower"},
	{Name: "hifun.execute_ms", Unit: "ms", Better: "lower"},
	{Name: "hifun.answer_build_ms", Unit: "ms", Better: "lower"},
	{Name: "facet.class_facet_ms", Unit: "ms", Better: "lower"},
	{Name: "facet.property_facets_ms", Unit: "ms", Better: "lower"},
	{Name: "facet.restrict_ms", Unit: "ms", Better: "lower"},
	{Name: "facet.values_per_state", Unit: "count", Better: "lower"},
	{Name: "core.transition_ms", Unit: "ms", Better: "lower"},
	{Name: "core.ui_state_ms", Unit: "ms", Better: "lower"},
	{Name: "core.run_ms", Unit: "ms", Better: "lower"},
	{Name: "core.run_cached_ms", Unit: "ms", Better: "lower"},
	{Name: "core.level_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "resilience.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "resilience.shed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "resilience.hit_ms", Unit: "ms", Better: "lower"},
	{Name: "resilience.miss_ms", Unit: "ms", Better: "lower"},
	{Name: "resilience.lookup_us", Unit: "us", Better: "lower"},
	{Name: "resilience.store_us", Unit: "us", Better: "lower"},
	{Name: "resilience.evictions_per_op", Unit: "count", Better: "lower"},
	{Name: "resilience.cache_mb", Unit: "MB", Better: "lower"},
	{Name: "server.handler_click_ms", Unit: "ms", Better: "lower"},
	{Name: "server.handler_run_ms", Unit: "ms", Better: "lower"},
	{Name: "server.handler_sparql_ms", Unit: "ms", Better: "lower"},
	{Name: "server.handler_update_ms", Unit: "ms", Better: "lower"},
	{Name: "server.self_click_ms", Unit: "ms", Better: "lower"},
	{Name: "server.self_hit_us", Unit: "us", Better: "lower"},
	{Name: "server.net_click_ms", Unit: "ms", Better: "lower"},
	{Name: "server.net_sparql_ms", Unit: "ms", Better: "lower"},
	{Name: "server.response_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "store.bootstrap_ms", Unit: "ms", Better: "lower"},
	{Name: "store.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "store.sync_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "store.fsyncs_per_update", Unit: "count", Better: "lower"},
	{Name: "store.wal_bytes_per_triple", Unit: "B", Better: "lower"},
	{Name: "store.checkpoint_ms", Unit: "ms", Better: "lower"},
	{Name: "store.checkpoint_stall_ms", Unit: "ms", Better: "lower"},
	{Name: "store.segment_bytes_per_triple", Unit: "B", Better: "lower"},
	{Name: "store.restore_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.request_overhead_us", Unit: "us", Better: "lower"},
	{Name: "obs.scrape_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.series", Unit: "count", Better: "lower"},
	{Name: "obs.trace_store_kb", Unit: "KB", Better: "lower"},
	{Name: "unattributed.click_ms", Unit: "ms", Better: "lower"},
	{Name: "unattributed.run_ms", Unit: "ms", Better: "lower"},
	{Name: "unattributed.sparql_ms", Unit: "ms", Better: "lower"},
	{Name: "unattributed.update_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
}

// tracedOps bounds the ops the traced pass replays: a whole round, except
// on sparql-hot, whose round is 4000 hits that all look alike.
const tracedOps = 500

// tracer replays ops in process, single-threaded: each op once through the
// server's handler (no TCP) and once as direct calls into the public
// functions the handler composes, every call inside a benchmark-side span.
type tracer struct {
	sys  *system
	rec  *recorder
	sess *core.Session // benchmark-owned twin of the server's "trace" session
	fb   *sparql.FeedbackStore
	ans  *resilience.AnswerCache
	n    int // op counter
	fail int

	// per-op derived series
	selfClick, selfHit []float64
	missHandler        []float64
	scanPerRow, qerror []float64
	values             []float64
	buildMS            []float64
}

func newTracer(sys *system) *tracer {
	t := &tracer{sys: sys, rec: newRecorder(), fb: sparql.NewFeedbackStore(), ans: resilience.NewAnswerCache(64<<20, 0, nil)}
	t.sess = core.NewSession(sys.g, ns)
	t.sess.SetFeedback(t.fb)
	return t
}

// handle sends o through the server's handler without a socket.
func (t *tracer) handle(o *op) *httptest.ResponseRecorder {
	var body io.Reader
	if o.Body != "" {
		body = strings.NewReader(o.Body)
	}
	req := httptest.NewRequest(o.Method, o.Path, body)
	if o.CType != "" {
		req.Header.Set("Content-Type", o.CType)
	}
	if o.Session != "" {
		req.Header.Set("X-Session", o.Session)
	}
	w := httptest.NewRecorder()
	t.sys.srv.ServeHTTP(w, req)
	return w
}

// replay runs ops in order, every one instrumented.
func (t *tracer) replay(ops []op) {
	for i := range ops {
		o := &ops[i]
		if o.Session != "" {
			o.Session = "trace"
		}
		t.n++
		if o.Class == "checkpoint" {
			t.rec.measure(t.n, 0, "store.checkpoint", func() {
				if err := t.sys.st.Checkpoint(); err != nil {
					t.fail++
				}
			})
			continue
		}
		root := t.rec.start(t.n, 0, "op")
		root.Attrs["class"], root.Attrs["key"] = o.Class, o.Key
		var w *httptest.ResponseRecorder
		h := t.rec.measure(t.n, root.ID, "server.handler."+o.Class, func() { w = t.handle(o) })
		h.Attrs["bytes"], h.Attrs["status"], h.Attrs["cache"] = w.Body.Len(), w.Code, w.Header().Get("X-Cache")
		if w.Code != http.StatusOK {
			t.fail++
		}
		probe := t.rec.start(t.n, root.ID, "probe")
		switch o.Class {
		case "click", "expand":
			t.probeClick(probe, o.act, h)
		case "run":
			t.probeRun(probe)
		case "sparql":
			t.probeSPARQL(probe, o, h, w)
		case "update":
			t.probeUpdate(probe, h)
		}
		t.rec.end(probe)
		t.rec.end(root)
	}
}

func toPath(steps []step) facet.Path {
	out := make(facet.Path, len(steps))
	for i, s := range steps {
		out[i] = facet.PathStep{P: rdf.NewIRI(s.P), Inverse: s.Inverse}
	}
	return out
}

func toTerm(v term) rdf.Term {
	switch {
	case v.Kind == "iri":
		return rdf.NewIRI(v.Value)
	case v.Datatype != "":
		return rdf.NewTyped(v.Value, v.Datatype)
	}
	return rdf.NewString(v.Value)
}

// apply performs the interaction on the twin session the way the server's
// handler does on its own.
func (t *tracer) apply(a *action) {
	s := t.sess
	switch a.Kind {
	case "class":
		s.ClickClass(rdf.NewIRI(a.Class))
	case "value":
		s.ClickValue(toPath(a.Path), toTerm(a.Value))
	case "range":
		s.ClickRange(toPath(a.Path), a.Op, toTerm(a.Value))
	case "expand":
		s.Model().ExpandPath(s.State(), toPath(a.Path))
	case "back":
		s.Back()
	case "groupby":
		s.ClickGroupBy(core.GroupSpec{Path: toPath(a.Path), Derive: a.Derive})
	case "aggregate":
		s.ClickAggregate(core.MeasureSpec{Path: toPath(a.Path)}, hifun.Operation{Op: hifun.AggOp(strings.ToUpper(a.Agg))})
	case "run":
		s.RunAnalyticsCtx(context.Background())
	case "reset":
		s.Reset()
	}
}

func (t *tracer) probeClick(probe *span, a *action, h *span) {
	m, ext := t.sess.Model(), t.sess.State().Ext
	switch a.Kind {
	case "class":
		t.rec.measure(t.n, probe.ID, "facet.restrict", func() { m.RestrictClass(ext, rdf.NewIRI(a.Class)) })
	case "value":
		t.rec.measure(t.n, probe.ID, "facet.restrict", func() { m.Restrict(ext, rdf.NewIRI(a.Path[0].P), false, toTerm(a.Value)) })
	case "range":
		t.rec.measure(t.n, probe.ID, "facet.restrict", func() { m.RestrictOp(ext, rdf.NewIRI(a.Path[0].P), a.Op, toTerm(a.Value)) })
	}
	tr := t.rec.measure(t.n, probe.ID, "core.transition", func() { t.apply(a) })
	if a.Kind == "expand" {
		return // expand returns values, not a state
	}
	var ui *core.UIState
	us := t.rec.measure(t.n, probe.ID, "core.ui_state", func() { ui = t.sess.ComputeUIState(50, true) })
	st := t.sess.State()
	t.rec.measure(t.n, probe.ID, "facet.class_facet", func() { m.ClassFacet(st) })
	t.rec.measure(t.n, probe.ID, "facet.property_facets", func() { m.PropertyFacets(st, true) })
	vals := 0
	for _, f := range ui.Facets {
		vals += len(f.Values)
	}
	t.values = append(t.values, float64(vals))
	t.selfClick = append(t.selfClick, math.Max(0, h.durMS()-tr.durMS()-us.durMS()))
}

func (t *tracer) probeRun(probe *span) {
	ctx := context.Background()
	var ans *hifun.Answer
	t.rec.measure(t.n, probe.ID, "core.run", func() { ans, _ = t.sess.RunAnalyticsCtx(ctx) })
	t.rec.measure(t.n, probe.ID, "core.run_cached", func() { t.sess.RunAnalyticsCtx(ctx) })
	q, err := t.sess.BuildHIFUNQuery()
	if err != nil || ans == nil {
		t.fail++
		return
	}
	t.rec.measure(t.n, probe.ID, "hifun.parse", func() { hifun.Parse(q.String(), ns) })
	hc := t.sess.Context()
	tl := t.rec.measure(t.n, probe.ID, "hifun.translate", func() { hc.Translator().Translate(q) })
	ex := t.rec.measure(t.n, probe.ID, "hifun.execute", func() { hc.ExecuteCtx(ctx, q) })
	var parsed *sparql.Query
	ps := t.rec.measure(t.n, probe.ID, "sparql.parse", func() { parsed, _ = sparql.Parse(ans.SPARQL) })
	if parsed == nil {
		t.fail++
		return
	}
	se := t.exec(probe, parsed)
	t.buildMS = append(t.buildMS, math.Max(0, ex.durMS()-tl.durMS()-ps.durMS()-se.durMS()))
}

// exec evaluates q with the options the server passes: a trace, an operator
// profile and the feedback store keyed by the query's fingerprint.
func (t *tracer) exec(probe *span, q *sparql.Query) *span {
	prof := sparql.NewProfile("sparql")
	var res *sparql.Results
	s := t.rec.measure(t.n, probe.ID, "sparql.exec", func() {
		res, _ = sparql.ExecSelectCtx(context.Background(), t.sys.g, q, sparql.Options{
			Trace: obs.NewTrace("sparql"), Profile: prof, Feedback: t.fb,
			FingerprintID: sparql.FingerprintID(sparql.Fingerprint(q)),
		})
	})
	if res == nil {
		t.fail++
		return s
	}
	s.Attrs["rows"] = len(res.Rows)
	if scanned := scanRows(prof.Export()); len(res.Rows) > 0 {
		t.scanPerRow = append(t.scanPerRow, float64(scanned)/float64(len(res.Rows)))
	}
	t.qerror = append(t.qerror, prof.MaxQError())
	t.rec.measure(t.n, probe.ID, "sparql.sort", func() { res.Sort() })
	var buf bytes.Buffer
	ser := t.rec.measure(t.n, probe.ID, "sparql.serialize", func() { res.WriteJSON(&buf) })
	ser.Attrs["bytes"] = buf.Len()
	key := resilience.CacheKey(sparql.FingerprintID(sparql.Fingerprint(q)), strconv.Itoa(t.n))
	t.rec.measure(t.n, probe.ID, "resilience.store", func() {
		t.ans.Store(key, &resilience.Answer{Body: bytes.Clone(buf.Bytes()), Status: http.StatusOK, Version: t.sys.g.Version(), When: time.Now()})
	})
	return s
}

// scanRows sums the rows the scan operators of a profile produced.
func scanRows(n *sparql.ProfNodeJSON) int64 {
	if n == nil {
		return 0
	}
	var sum int64
	if strings.Contains(n.Op, "scan") {
		sum = n.RowsOut
	}
	for i := range n.Children {
		sum += scanRows(&n.Children[i])
	}
	return sum
}

func (t *tracer) probeSPARQL(probe *span, o *op, h *span, w *httptest.ResponseRecorder) {
	var q *sparql.Query
	ps := t.rec.measure(t.n, probe.ID, "sparql.parse", func() { q, _ = sparql.Parse(o.query) })
	if q == nil {
		t.fail++
		return
	}
	var key string
	fp := t.rec.measure(t.n, probe.ID, "sparql.fingerprint", func() {
		key = resilience.CacheKey(sparql.FingerprintID(sparql.Fingerprint(q)), o.query)
	})
	hit := w.Header().Get("X-Cache") == "hit"
	if hit {
		// Give the twin cache the entry the server's cache has.
		t.ans.Store(key, &resilience.Answer{Body: w.Body.Bytes(), Status: http.StatusOK, Version: t.sys.g.Version(), When: time.Now()})
	}
	lk := t.rec.measure(t.n, probe.ID, "resilience.lookup", func() { t.ans.Lookup(key, t.sys.g.Version()) })
	if hit {
		t.selfHit = append(t.selfHit, math.Max(0, h.durMS()-ps.durMS()-fp.durMS()-lk.durMS())*1000)
		return
	}
	t.missHandler = append(t.missHandler, h.durMS())
	t.exec(probe, q)
}

// probeUpdate times an insert of its own and the group commit behind it,
// then removes the item again, so the graph ends as the op list left it.
func (t *tracer) probeUpdate(probe *span, h *span) {
	item := noteTriples(1_000_000 + t.n)
	ctx := context.Background()
	t.rec.measure(t.n, probe.ID, "sparql.update_apply", func() { sparql.ExecUpdateCtx(ctx, t.sys.g, "INSERT DATA { "+item+" }") })
	if t.sys.st != nil {
		t.rec.measure(t.n, probe.ID, "store.sync", func() { t.sys.st.Sync() })
	}
	sparql.ExecUpdateCtx(ctx, t.sys.g, "DELETE DATA { "+item+" }")
	if t.sys.st != nil {
		t.sys.st.Sync()
	}
}

// ---- /metrics ----

// scrape reads the server's /metrics through the handler and returns every
// sample by its series name, labels included.
func scrape(srv http.Handler) (map[string]float64, time.Duration) {
	req := httptest.NewRequest("GET", "/metrics", nil)
	w := httptest.NewRecorder()
	start := time.Now()
	srv.ServeHTTP(w, req)
	took := time.Since(start)
	out := map[string]float64{}
	sc := bufio.NewScanner(w.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil && i > 0 {
			out[line[:i]] = v
		}
	}
	return out, took
}

// counters is the state read before and after the HTTP pass for deltas.
type counters struct {
	metrics          map[string]float64
	scans            uint64
	cardHit, cardMis uint64
	walBytes         int64
	walRecords       int64
}

func readCounters(sys *system) counters {
	c := counters{scans: sys.g.IndexScans()}
	c.metrics, _ = scrape(sys.srv)
	_, c.cardHit, c.cardMis = sys.g.CardCacheStats()
	if sys.st != nil {
		st := sys.st.Stats()
		c.walBytes, c.walRecords = st.WALBytesTotal, st.WALRecordsTotal
	}
	return c
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ---- the traced run ----

// runTraced is -trace 1: one set-up with its phases timed, then over HTTP
// with tracing off the fewest rounds that give every class its p90 (the
// per-class view and the counters), then the next round replayed in process
// under spans.
func runTraced(w *workload, gold *golden, seed int64, outDir, traceFile string, rec record, log func(string, ...any)) (*result, error) {
	m := map[string]float64{}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	sys, err := setUp(w.laptops, w.durable, outDir)
	if err != nil {
		return nil, err
	}
	defer func() { sys.tearDown() }()
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	m["datagen.generate_ms"], m["rdf.materialize_ms"], m["store.bootstrap_ms"] = sys.generateMS, sys.materializeMS, sys.bootstrapMS
	m["rdf.live_bytes_per_triple"] = ratio(float64(ms1.HeapAlloc)-float64(ms0.HeapAlloc), float64(sys.fp.Triples))
	initial := sys.g.Len()
	if sys.st != nil {
		m["store.segment_bytes_per_triple"] = ratio(float64(dirBytes(sys.dir, "segment-*.seg")), float64(sys.st.Stats().SegmentTriples))
	}

	// Pass 1: tracing off, over TCP.
	rounds := w.tracedRounds()
	before := readCounters(sys)
	p, err := runPass(sys, w, gold, nil, seed, rounds)
	if err != nil {
		return nil, err
	}
	failed := p.failures()
	for _, f := range p.failed {
		log("FAILED %s", f)
	}
	passMetrics(m, p, before, readCounters(sys))

	// Pass 2: the round after pass 1's, in process, under spans. Being a new
	// round, its SPARQL texts miss the cache where pass 1's did, and the
	// durable workload's model of inserted items holds.
	ops := w.round(w, seed, rounds)
	ops = ops[:min(len(ops), tracedOps)]
	t := newTracer(sys)
	for _, o := range w.between {
		t.handle(&o) // as before every round: the server plans without pass 1's feedback, like the twin
	}
	start := time.Now()
	t.replay(ops)
	tracedWall := time.Since(start)
	failed += t.fail
	spanMetrics(m, t)
	remainders(m)
	// The cache's fill and evictions are read over both passes.
	final := readCounters(sys)
	const evictions = `rdfa_cache_evictions_total{cache="answer"}`
	m["resilience.evictions_per_op"] = ratio(final.metrics[evictions]-before.metrics[evictions], float64(len(p.samples)+len(ops)))
	m["resilience.cache_mb"] = final.metrics["rdfa_cache_bytes"] / (1 << 20)
	var untracedWall float64
	for _, s := range p.samples {
		untracedWall += s.ms
	}
	m["bench.trace_overhead_ratio"] = ratio(ms(tracedWall)/float64(len(ops)), untracedWall/float64(len(p.samples))) - 1

	// Probes that change what the counters above read come last.
	if w.durable {
		m["store.checkpoint_stall_ms"] = checkpointStall(sys)
	}
	rdfProbes(sys, m)
	obsProbes(sys, m)
	if w.durable {
		restartS, restore, err := checkRestart(sys, w, gold, seed, rounds+1, initial)
		if err != nil {
			log("FAILED restart: %v", err)
			failed++
		}
		m["e2e.restart_s"], m["store.restore_ms"] = restartS, ms(restore)
	}

	if err := t.rec.write(traceFile, rec); err != nil {
		return nil, err
	}
	log("spans %d written to %s", len(t.rec.spans), traceFile)
	out := map[string]metric{}
	for _, spec := range perLayer {
		out[spec.Name] = metric{m[spec.Name], spec.Unit}
	}
	return &result{Correct: failed == 0, Attempted: len(p.samples) + len(ops), Failed: failed, Metrics: out}, nil
}

// passMetrics derives what the untraced pass shows: per-class latencies,
// cache outcomes from the X-Cache header, and the deltas of the counters
// read before and after it.
func passMetrics(m map[string]float64, p *pass, before, after counters) {
	ops := float64(len(p.samples))
	whole := p.latencies(reported)
	m["e2e.p50_ms"], m["e2e.ops_per_s"] = p50(whole), p.opsPerSec
	m["e2e.p90_ms"], _ = percentile(whole, 90)
	for _, class := range latencyClasses {
		// tracedRounds gave every class the workload has its hundred
		// samples; a class it does not have reports 0.
		lat := p.latencies(ofClass(class))
		m["e2e."+class+"_p50_ms"] = p50(lat)
		m["e2e."+class+"_p90_ms"], _ = percentile(lat, 90)
	}
	m["e2e.fail_ratio"] = ratio(float64(p.failures()), ops)
	delta := func(name string) float64 { return after.metrics[name] - before.metrics[name] }
	m["rdf.index_scans_per_op"] = ratio(float64(after.scans-before.scans), ops)
	hits, misses := float64(after.cardHit-before.cardHit), float64(after.cardMis-before.cardMis)
	m["rdf.cardcache_hit_ratio"] = ratio(hits, hits+misses)
	lvlHit := delta(`rdfa_core_answer_cache_total{result="hit"}`) + delta(`rdfa_core_answer_cache_total{result="cube"}`)
	m["core.level_cache_hit_ratio"] = ratio(lvlHit, lvlHit+delta(`rdfa_core_answer_cache_total{result="miss"}`))
	var nSPARQL, nHit, nShed, bytesOut float64
	for _, s := range p.samples {
		bytesOut += float64(s.bytes)
		if s.class != "sparql" {
			continue
		}
		nSPARQL++
		switch {
		case s.cache == "hit":
			nHit++
		case s.shed:
			nShed++
		}
	}
	m["resilience.hit_ratio"], m["resilience.shed_ratio"] = ratio(nHit, nSPARQL), ratio(nShed, nSPARQL)
	m["resilience.hit_ms"] = p50(p.latencies(func(s *sample) bool { return s.cache == "hit" }))
	m["resilience.miss_ms"] = p50(p.latencies(func(s *sample) bool { return s.cache == "miss" }))
	m["server.response_kb_per_op"] = ratio(bytesOut/1024, ops)
	nUpdates := float64(len(p.latencies(ofClass("update"))))
	m["store.fsyncs_per_update"] = ratio(delta("rdfa_store_fsync_seconds_count"), nUpdates)
	m["store.wal_bytes_per_triple"] = ratio(float64(after.walBytes-before.walBytes), float64(after.walRecords-before.walRecords))
	m["obs.trace_store_kb"] = after.metrics["rdfa_trace_store_bytes"] / 1024
}

// spanMetrics turns the spans of the traced pass into the per-layer numbers:
// the median busy time (or attribute) of each span name.
func spanMetrics(m map[string]float64, t *tracer) {
	d := t.rec.durations()
	med := func(name string) float64 { return p50(d[name]) }
	m["sparql.parse_us"] = med("sparql.parse") * 1000
	m["sparql.exec_ms"], m["sparql.exec_p90_ms"] = med("sparql.exec"), p90OrMax(d["sparql.exec"])
	m["sparql.exec_allocs_per_op"] = p50(t.rec.attrs("sparql.exec", "allocs"))
	m["sparql.exec_kb_per_op"] = p50(t.rec.attrs("sparql.exec", "alloc_bytes")) / 1024
	m["sparql.sort_ms"], m["sparql.serialize_ms"] = med("sparql.sort"), med("sparql.serialize")
	m["sparql.serialize_kb_per_op"] = p50(t.rec.attrs("sparql.serialize", "bytes")) / 1024
	m["sparql.rows_per_op"] = p50(t.rec.attrs("sparql.exec", "rows"))
	m["sparql.scan_rows_per_result_row"], m["sparql.max_qerror"] = p50(t.scanPerRow), p50(t.qerror)
	m["sparql.update_apply_ms"] = med("sparql.update_apply")
	m["hifun.parse_us"], m["hifun.translate_us"] = med("hifun.parse")*1000, med("hifun.translate")*1000
	m["hifun.execute_ms"], m["hifun.answer_build_ms"] = med("hifun.execute"), p50(t.buildMS)
	m["facet.class_facet_ms"], m["facet.property_facets_ms"] = med("facet.class_facet"), med("facet.property_facets")
	m["facet.restrict_ms"], m["facet.values_per_state"] = med("facet.restrict"), p50(t.values)
	m["core.transition_ms"], m["core.ui_state_ms"] = med("core.transition"), med("core.ui_state")
	m["core.run_ms"], m["core.run_cached_ms"] = med("core.run"), med("core.run_cached")
	m["resilience.lookup_us"], m["resilience.store_us"] = med("resilience.lookup")*1000, med("resilience.store")*1000
	for _, class := range latencyClasses {
		m["server.handler_"+class+"_ms"] = med("server.handler." + class)
	}
	m["server.self_click_ms"], m["server.self_hit_us"] = p50(t.selfClick), p50(t.selfHit)
	m["store.sync_ms"], m["store.sync_p90_ms"] = med("store.sync"), p90OrMax(d["store.sync"])
	m["store.checkpoint_ms"] = med("store.checkpoint")
	// What a cache miss spends outside the engine and the cache.
	if n := p50(t.missHandler); n > 0 {
		m["unattributed.sparql_ms"] = n - med("sparql.parse") - med("sparql.fingerprint") - med("resilience.lookup") -
			m["sparql.exec_ms"] - m["sparql.sort_ms"] - m["sparql.serialize_ms"] - med("resilience.store")
	}
}

// remainders states what is left over: the network share (a class over TCP
// against the same class through the handler; every round is the same
// multiset of ops) and, per class, the handler time no layer span accounts
// for.
func remainders(m map[string]float64) {
	if n := m["server.handler_click_ms"]; n > 0 {
		m["server.net_click_ms"] = m["e2e.click_p50_ms"] - n
		m["unattributed.click_ms"] = n - m["core.transition_ms"] - m["core.ui_state_ms"] - m["server.self_click_ms"]
	}
	if n := m["server.handler_sparql_ms"]; n > 0 {
		m["server.net_sparql_ms"] = m["e2e.sparql_p50_ms"] - n
	}
	if n := m["server.handler_run_ms"]; n > 0 {
		m["unattributed.run_ms"] = n - m["core.run_ms"]
	}
	if n := m["server.handler_update_ms"]; n > 0 {
		m["unattributed.update_ms"] = n - m["sparql.update_apply_ms"] - m["store.sync_ms"]
	}
}

// checkpointStall measures what a checkpoint costs the reads that overlap
// it: the slowest uncached read while one runs, minus the median of the same
// read alone.
func checkpointStall(sys *system) float64 {
	n := 0
	read := func() float64 {
		n++
		o := sparqlOp(universe()["avg"][0], fmt.Sprintf("stall %d", n))
		start := time.Now()
		if resp, err := http.Get(sys.base + o.Path); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		return ms(time.Since(start))
	}
	var alone []float64
	for i := 0; i < 20; i++ {
		alone = append(alone, read())
	}
	// A checkpoint with nothing to fold is skipped; give it one record.
	ctx := context.Background()
	sparql.ExecUpdateCtx(ctx, sys.g, "INSERT DATA { "+noteTriples(2_000_000)+" }")
	done := make(chan struct{})
	go func() {
		defer close(done)
		sys.st.Checkpoint()
	}()
	worst := 0.0
	for running := true; running; {
		worst = math.Max(worst, read())
		select {
		case <-done:
			running = false
		default:
		}
	}
	sparql.ExecUpdateCtx(ctx, sys.g, "DELETE DATA { "+noteTriples(2_000_000)+" }")
	sys.st.Sync()
	return math.Max(0, worst-p50(alone))
}

// rdfProbes times the graph's two primitives on the live graph: a
// predicate-bound Match, and Add (undone afterwards).
func rdfProbes(sys *system, m map[string]float64) {
	price := rdf.NewIRI(ns + "price")
	var perTriple []float64
	for i := 0; i < 5; i++ {
		n := 0
		start := time.Now()
		sys.g.Match(rdf.Any, price, rdf.Any, func(rdf.Triple) bool { n++; return true })
		perTriple = append(perTriple, ratio(float64(time.Since(start).Nanoseconds()), float64(n)))
	}
	m["rdf.match_ns_per_triple"] = p50(perTriple)
	const batch = 2000
	ts := make([]rdf.Triple, batch)
	for i := range ts {
		ts[i] = rdf.Triple{S: rdf.NewIRI(fmt.Sprintf("%sprobeItem%d", ns, i)), P: rdf.NewIRI(ns + "probeNote"), O: rdf.NewInteger(int64(i))}
	}
	start := time.Now()
	for _, tr := range ts {
		sys.g.Add(tr)
	}
	m["rdf.add_us_per_triple"] = float64(time.Since(start).Microseconds()) / batch
	for _, tr := range ts {
		sys.g.Remove(tr)
	}
	if sys.st != nil {
		sys.st.Sync()
	}
}

// obsProbes measures the telemetry layer: the cost and size of a scrape,
// and what trace retention adds to a cache hit — the same hit through a
// second server over the same graph with retention disabled. The second
// server re-binds the registry's gauges, so this runs after the last counter
// was read.
func obsProbes(sys *system, m map[string]float64) {
	var took []float64
	var series int
	for i := 0; i < 5; i++ {
		samples, d := scrape(sys.srv)
		took, series = append(took, ms(d)), len(samples)
	}
	m["obs.scrape_ms"], m["obs.series"] = p50(took), float64(series)

	cfg := serverConfig(nil)
	cfg.SampleInterval, cfg.SessionTTL = 0, 0 // no goroutines to stop
	cfg.TraceRetention = obs.TraceStoreConfig{Disabled: true}
	bare := server.NewWithConfig(sys.g, ns, cfg)
	defer bare.Close()
	hit := hotOnce()[0]
	time1 := func(h http.Handler) float64 {
		req := httptest.NewRequest(hit.Method, hit.Path, nil)
		w := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(w, req)
		return float64(time.Since(start).Nanoseconds()) / 1000
	}
	time1(sys.srv) // fill both caches
	time1(bare)
	var with, without []float64
	for i := 0; i < 1000; i++ {
		with = append(with, time1(sys.srv))
		without = append(without, time1(bare))
	}
	m["obs.request_overhead_us"] = p50(with) - p50(without)
}
