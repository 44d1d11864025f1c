package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/fault"
	"rdfanalytics/internal/obs"
	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/store"
)

// lockedBuffer is a log sink safe for the server's concurrent writers.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// lines decodes the JSON log lines written so far.
func (b *lockedBuffer) lines(t *testing.T) []map[string]any {
	t.Helper()
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(b.buf.Bytes()))
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad log line %q: %v", sc.Text(), err)
		}
		out = append(out, m)
	}
	return out
}

// sentOp is one request a row sent: its X-Request-ID and the response.
type sentOp struct {
	id  string
	rec *httptest.ResponseRecorder
}

// TestOneRecordPerOperation: every operation class — /sparql SELECT (JSON,
// CSV, hit, stale, collapsed), ASK, CONSTRUCT, DESCRIBE, /api/run (miss, a
// hit on another session's run, a reloaded level's bypass, failure), update
// and checkpoint — ends in
// exactly one record: one workload entry, one slow-log line, and for an
// execution one offered trace, all carrying the same trace and request IDs.
// A cache serve offers nothing and tallies a serve on the filler's trace.
func TestOneRecordPerOperation(t *testing.T) {
	st, err := store.Open(store.Options{Dir: t.TempDir(), Sync: store.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	g := datagen.SmallProducts()
	rdf.Materialize(g)
	if err := st.Bootstrap(g); err != nil {
		t.Fatal(err)
	}
	logs := &lockedBuffer{}
	cfg := resilienceConfig()
	cfg.SlowQuery = time.Nanosecond
	cfg.SlowQueryLogger = slog.New(slog.NewJSONHandler(logs, nil))
	cfg.Store = st
	// Every otherwise-unsampled trace is retained, so each execution's
	// trace can be fetched.
	cfg.TraceRetention = obs.TraceStoreConfig{ResidualEvery: 1}
	s := NewWithConfig(st.Graph(), datagen.ExampleNS, cfg)
	defer s.Close()

	ns := datagen.ExampleNS
	nextID := 0
	newID := func() string {
		nextID++
		return fmt.Sprintf("op-%d", nextID)
	}
	send := func(req *http.Request, id string) sentOp {
		req.Header.Set("X-Request-ID", id)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return sentOp{id, rec}
	}
	get := func(q string) *http.Request {
		return httptest.NewRequest("GET", "/sparql?query="+url.QueryEscape(q), nil)
	}
	update := func(u string) *http.Request {
		req := httptest.NewRequest("POST", "/sparql", strings.NewReader(url.Values{"update": {u}}.Encode()))
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		return req
	}
	session := func(sess, path string, body any) *http.Request {
		data, _ := json.Marshal(body)
		req := httptest.NewRequest("POST", path, bytes.NewReader(data))
		req.Header.Set("X-Session", sess)
		return req
	}
	must := func(req *http.Request) {
		t.Helper()
		if op := send(req, newID()); op.rec.Code != http.StatusOK {
			t.Fatalf("setup %s %s = %d %s", req.Method, req.URL, op.rec.Code, op.rec.Body)
		}
	}
	// analytic selects Laptops, groups them by each property and counts.
	analytic := func(sess string, groupBy ...string) {
		must(session(sess, "/api/click/class", map[string]any{"class": ns + "Laptop"}))
		for _, p := range groupBy {
			must(session(sess, "/api/groupby", map[string]any{"path": []map[string]any{{"p": ns + p}}}))
		}
		must(session(sess, "/api/aggregate", map[string]any{"op": "COUNT"}))
	}
	one := func(req func() *http.Request) func() []sentOp {
		return func() []sentOp { return []sentOp{send(req(), newID())} }
	}
	run := func(sess string) func() *http.Request {
		return func() *http.Request { return session(sess, "/api/run", map[string]any{}) }
	}

	qHit := `SELECT ?s WHERE { ?s <` + ns + `origin> ?o }`
	qStale := `SELECT ?s WHERE { ?s <` + ns + `USBPorts> ?u }`
	qCollapsed := `SELECT ?s WHERE { ?s <` + ns + `price> ?p }`
	rows := []struct {
		name     string
		kind     string
		setup    func()
		act      func() []sentOp
		cache    []string // each record's Cache, in the order act sent them
		offers   int      // executions act offers to the trace store
		outcome  string   // "" for "ok"
		teardown func()
	}{
		{name: "select", kind: "sparql", cache: []string{"miss"}, offers: 1,
			act: one(func() *http.Request { return get(laptopQuery()) })},
		{name: "select-csv", kind: "sparql", cache: []string{"bypass"}, offers: 1,
			act: one(func() *http.Request {
				req := get(`SELECT ?s ?m WHERE { ?s <` + ns + `manufacturer> ?m }`)
				req.Header.Set("Accept", "text/csv")
				return req
			})},
		{name: "hit", kind: "sparql", cache: []string{"hit"},
			setup: func() { must(get(qHit)) },
			act:   one(func() *http.Request { return get(qHit) })},
		{name: "stale", kind: "sparql", cache: []string{"stale"},
			setup: func() {
				must(get(qStale))
				must(update(`PREFIX ex: <` + ns + `> INSERT DATA { ex:staleProbe a ex:Laptop ; ex:USBPorts 9 . }`))
			},
			act: one(func() *http.Request {
				req := get(qStale)
				req.Header.Set("Cache-Control", "max-stale=600")
				return req
			})},
		{name: "collapsed", kind: "sparql", cache: []string{"miss", "collapsed"}, offers: 1,
			setup: func() {
				if err := fault.Configure("server.sparql.exec=delay:300ms"); err != nil {
					t.Fatal(err)
				}
			},
			act: func() []sentOp {
				ops := []sentOp{{id: newID()}, {id: newID()}}
				var wg sync.WaitGroup
				for i := range ops {
					if i == 1 { // the leader is inside its delay: join it
						for fault.Hits("server.sparql.exec") == 0 {
							time.Sleep(time.Millisecond)
						}
					}
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						ops[i] = send(get(qCollapsed), ops[i].id)
					}(i)
				}
				wg.Wait()
				return ops
			},
			teardown: fault.Reset},
		{name: "ask", kind: "sparql", cache: []string{"miss"}, offers: 1,
			act: one(func() *http.Request { return get(`ASK { ?s a <` + ns + `Laptop> }`) })},
		{name: "construct", kind: "sparql", cache: []string{"bypass"}, offers: 1,
			act: one(func() *http.Request {
				return get(`CONSTRUCT { ?s a <` + ns + `Laptop> } WHERE { ?s a <` + ns + `Laptop> }`)
			})},
		{name: "describe", kind: "sparql", cache: []string{"bypass"}, offers: 1,
			act: one(func() *http.Request { return get(`PREFIX ex: <` + ns + `> DESCRIBE ex:laptop1`) })},
		{name: "run", kind: "analytics", cache: []string{"miss"}, offers: 1,
			setup: func() { analytic("rec-run", "manufacturer") },
			act:   one(run("rec-run"))},
		{name: "run-hit", kind: "analytics", cache: []string{"hit"},
			setup: func() {
				analytic("rec-hit-a", "USBPorts")
				must(run("rec-hit-a")())
				analytic("rec-hit-b", "USBPorts")
			},
			act: one(run("rec-hit-b"))},
		{name: "run-bypass", kind: "analytics", cache: []string{"bypass"}, offers: 1,
			setup: func() {
				analytic("rec-bypass", "manufacturer")
				must(run("rec-bypass")())
				must(session("rec-bypass", "/api/load-answer", map[string]any{}))
				must(session("rec-bypass", "/api/aggregate", map[string]any{"op": "COUNT"}))
			},
			act: one(run("rec-bypass"))},
		{name: "run-failure", kind: "analytics", cache: []string{"miss"}, offers: 1, outcome: "cancelled",
			setup: func() {
				analytic("rec-fail", "origin")
				if err := fault.Configure("sparql.join=delay:1h"); err != nil {
					t.Fatal(err)
				}
			},
			act: func() []sentOp {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				go func() {
					for fault.Hits("sparql.join") == 0 { // the join has started: hang up
						time.Sleep(time.Millisecond)
					}
					cancel()
				}()
				return []sentOp{send(run("rec-fail")().WithContext(ctx), newID())}
			},
			teardown: fault.Reset},
		{name: "update", kind: "update", cache: []string{""}, offers: 1,
			act: one(func() *http.Request {
				return update(`PREFIX ex: <` + ns + `> INSERT DATA { ex:recProbe a ex:Laptop . }`)
			})},
		{name: "checkpoint", kind: "checkpoint", cache: []string{""}, offers: 1,
			act: one(func() *http.Request {
				return httptest.NewRequest("POST", "/api/checkpoint", strings.NewReader("{}"))
			})},
	}

	workload := func() obs.WorkloadSnapshot {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", "/api/workload", nil))
		var snap obs.WorkloadSnapshot
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
			t.Fatal(err)
		}
		return snap
	}
	// offers counts every trace the store was offered: each offer is
	// retained, sampled out, evicted or rejected as oversize.
	offers := func() int {
		st := s.oplog.TraceStats()
		return st.Retained + int(st.DroppedSampled+st.DroppedEvicted+st.DroppedOversize)
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if r.setup != nil {
				r.setup()
			}
			if r.teardown != nil {
				defer r.teardown()
			}
			total0, lines0, offers0 := workload().Total, len(logs.lines(t)), offers()
			ops := r.act()
			snap := workload()
			if got := snap.Total - total0; got != uint64(len(ops)) {
				t.Errorf("workload total grew by %d for %d operations", got, len(ops))
			}
			lines := logs.lines(t)[lines0:]
			if len(lines) != len(ops) {
				t.Errorf("%d slow-log lines for %d operations", len(lines), len(ops))
			}
			if got := offers() - offers0; got != r.offers {
				t.Errorf("%d traces offered, want %d", got, r.offers)
			}
			for i, op := range ops {
				var ring []obs.QueryRecord
				for _, e := range snap.Recent {
					if e.RequestID == op.id {
						ring = append(ring, e)
					}
				}
				var logged []map[string]any
				for _, l := range lines {
					if l["request_id"] == op.id {
						logged = append(logged, l)
					}
				}
				if len(ring) != 1 || len(logged) != 1 {
					t.Fatalf("request %s (%d): %d ring entries, %d log lines, want 1 each",
						op.id, op.rec.Code, len(ring), len(logged))
				}
				e, tid := ring[0], op.rec.Header().Get("X-Trace-ID")
				outcome := r.outcome
				if outcome == "" {
					outcome = "ok"
				}
				if e.Kind != r.kind || e.Cache != r.cache[i] || e.Outcome != outcome || logged[0]["kind"] != r.kind {
					t.Errorf("request %s: record kind %q cache %q outcome %q, want %q %q %q",
						op.id, e.Kind, e.Cache, e.Outcome, r.kind, r.cache[i], outcome)
				}
				if e.TraceID != tid || logged[0]["trace_id"] != tid {
					t.Errorf("request %s: ring trace %q, log trace %v, response trace %q", op.id, e.TraceID, logged[0]["trace_id"], tid)
				}
				d, ok := s.oplog.Get(tid)
				if !ok {
					t.Fatalf("request %s: trace %s not retained", op.id, tid)
				}
				switch e.Cache {
				case "hit", "stale", "collapsed": // the filler's trace
					if d.Serves[e.Cache] != 1 {
						t.Errorf("request %s: filler serves = %v, want %s:1", op.id, d.Serves, e.Cache)
					}
				default:
					if d.RequestID != op.id || d.Kind != r.kind || d.Outcome != e.Outcome {
						t.Errorf("request %s: retained trace %+v does not match its record %+v", op.id, d.TraceSummary, e)
					}
				}
			}
		})
	}
}

// TestUpdatesDoNotFloodTraceStore: updates fingerprint by operation kind, so
// 600 distinct INSERT DATA are one shape — its slowest N plus the residual
// share are retained, and an earlier SELECT trace survives.
func TestUpdatesDoNotFloodTraceStore(t *testing.T) {
	const slowest, residualEvery, updates = 3, 50, 600
	s, _ := newTestServer(t, Config{TraceRetention: obs.TraceStoreConfig{
		SlowestPerFingerprint: slowest,
		ResidualEvery:         residualEvery,
		// No outlier rule: it would retain timing noise.
		OutlierFactor: math.Inf(1),
	}})
	sel := doSparqlTraced(s, laptopQuery(), nil).Header().Get("X-Trace-ID")
	if !s.oplog.Contains(sel) {
		t.Fatal("setup: SELECT trace not retained")
	}
	for i := 0; i < updates; i++ {
		req := httptest.NewRequest("POST", "/sparql", strings.NewReader(url.Values{
			"update": {fmt.Sprintf(`INSERT DATA { <http://new/s%d> <http://new/p> "%d" }`, i, i)},
		}.Encode()))
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("update %d = %d %s", i, rec.Code, rec.Body)
		}
	}
	if !s.oplog.Contains(sel) {
		t.Error("the SELECT trace was evicted by updates")
	}
	out := searchTraces(t, s, "kind=update&limit=500")
	if max := slowest + updates/residualEvery; len(out.Traces) > max {
		t.Errorf("%d update traces retained, want at most %d", len(out.Traces), max)
	}
	for _, tr := range out.Traces {
		if tr.Shape != "update insert_data" {
			t.Errorf("update trace shape %q, want %q", tr.Shape, "update insert_data")
		}
	}
}
