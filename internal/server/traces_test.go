package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"rdfanalytics/internal/conformance"
	"rdfanalytics/internal/fault"
	"rdfanalytics/internal/obs"
	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/sparql"
)

// doSparqlTraced runs one GET /sparql in-process and returns the recorder so
// callers can read any response header (doSparql only surfaces X-Cache).
func doSparqlTraced(s *Server, query string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("GET", "/sparql?query="+url.QueryEscape(query), nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func searchTraces(t *testing.T, s *Server, params string) tracesJSON {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/api/traces?"+params, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /api/traces?%s = %d: %s", params, rec.Code, rec.Body.String())
	}
	var out tracesJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad /api/traces payload: %v", err)
	}
	return out
}

func getTrace(t *testing.T, s *Server, id string) (int, obs.TraceDetail) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/api/traces/"+id, nil))
	var d obs.TraceDetail
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
			t.Fatalf("bad /api/traces/%s payload: %v", id, err)
		}
	}
	return rec.Code, d
}

// TestTraceRetentionDifferential is the satellite differential oracle:
// across the whole SELECT/ASK conformance corpus, trace retention and
// exemplar attachment change no query results — /sparql responses are
// byte-identical with retention on (the default) and off, cached and
// uncached, cold and warm.
func TestTraceRetentionDifferential(t *testing.T) {
	cases, err := conformance.LoadCases(filepath.Join("..", "conformance", "testdata"))
	if err != nil {
		t.Fatal(err)
	}
	configs := []struct {
		name string
		cfg  Config
	}{
		{"retention", Config{}},
		{"no-retention", Config{TraceRetention: obs.TraceStoreConfig{Disabled: true}}},
		{"retention+cache", Config{CacheBytes: 1 << 20}},
		{"no-retention+cache", Config{CacheBytes: 1 << 20, TraceRetention: obs.TraceStoreConfig{Disabled: true}}},
	}
	ran := 0
	for _, c := range cases {
		if c.Expect == "expect.ttl" {
			continue // CONSTRUCT: uncached bypass path, covered by conformance itself
		}
		data, err := os.ReadFile(filepath.Join(c.Dir, "data.ttl"))
		if err != nil {
			t.Fatal(err)
		}
		queryBytes, err := os.ReadFile(filepath.Join(c.Dir, "query.rq"))
		if err != nil {
			t.Fatal(err)
		}
		query := string(queryBytes)

		var refBody string
		var refCode int
		for i, cc := range configs {
			g, err := rdf.LoadTurtleString(string(data))
			if err != nil {
				t.Fatalf("%s/%s: %v", c.Category, c.Name, err)
			}
			s := NewWithConfig(g, "", cc.cfg)
			for pass := 0; pass < 2; pass++ {
				code, _, _, body := doSparql(s, query)
				if i == 0 && pass == 0 {
					refCode, refBody = code, string(body)
					continue
				}
				if code != refCode || string(body) != refBody {
					t.Errorf("%s/%s: config %s pass %d diverges (code %d vs %d)\n ref: %s\n got: %s",
						c.Category, c.Name, cc.name, pass, code, refCode, refBody, body)
				}
			}
			s.Close()
		}
		ran++
	}
	if ran == 0 {
		t.Fatal("differential oracle matched zero corpus cases")
	}
	t.Logf("retention differential over %d corpus cases × %d configs × 2 passes", ran, len(configs))
}

// TestTraceSearchAPI drives the full retention round trip through the HTTP
// surface: a /sparql query is stamped with a trace ID, the completed trace
// is searchable through every /api/traces filter, and the single-trace
// fetch returns the span waterfall and operator profile.
func TestTraceSearchAPI(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	q := laptopQuery()
	rec := doSparqlTraced(s, q, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/sparql = %d: %s", rec.Code, rec.Body.String())
	}
	tid := rec.Header().Get("X-Trace-ID")
	if len(tid) != 16 {
		t.Fatalf("X-Trace-ID = %q, want a 16-char minted id", tid)
	}

	fp := sparql.FingerprintID(sparql.FingerprintQuery(q))

	// Unfiltered search finds it, newest first, with retention accounting.
	out := searchTraces(t, s, "")
	if len(out.Traces) == 0 {
		t.Fatal("no traces retained after a completed query")
	}
	found := false
	for _, tr := range out.Traces {
		if tr.ID == tid {
			found = true
			if tr.Kind != "sparql" || tr.Outcome != "ok" || tr.FingerprintID != fp {
				t.Errorf("retained summary wrong: %+v", tr)
			}
			if tr.Reason == "" {
				t.Error("summary missing retention reason")
			}
		}
	}
	if !found {
		t.Fatalf("trace %s not in search results", tid)
	}
	if out.Stats.Retained == 0 {
		t.Error("stats.retained = 0 with traces in the store")
	}

	// Every filter narrows correctly.
	if got := searchTraces(t, s, "fingerprint="+url.QueryEscape(fp)); len(got.Traces) == 0 {
		t.Error("fingerprint filter dropped the trace")
	}
	if got := searchTraces(t, s, "fingerprint=no-such-fingerprint"); len(got.Traces) != 0 {
		t.Errorf("bogus fingerprint matched %d traces", len(got.Traces))
	}
	if got := searchTraces(t, s, "kind=sparql&outcome=ok"); len(got.Traces) == 0 {
		t.Error("kind+outcome filter dropped the trace")
	}
	if got := searchTraces(t, s, "min_ms=3600000"); len(got.Traces) != 0 {
		t.Errorf("min_ms=1h matched %d traces", len(got.Traces))
	}
	if got := searchTraces(t, s, "since="+url.QueryEscape(time.Now().Add(time.Hour).Format(time.RFC3339))); len(got.Traces) != 0 {
		t.Errorf("future since matched %d traces", len(got.Traces))
	}

	// Bad parameters are rejected, not ignored.
	for _, bad := range []string{"min_ms=-1", "min_ms=fast", "since=yesterday", "limit=0", "limit=x"} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", "/api/traces?"+bad, nil))
		if rec.Code != http.StatusBadRequest {
			t.Errorf("GET /api/traces?%s = %d, want 400", bad, rec.Code)
		}
	}

	// Single-trace fetch: spans and profile round-trip.
	code, d := getTrace(t, s, tid)
	if code != http.StatusOK {
		t.Fatalf("GET /api/traces/%s = %d", tid, code)
	}
	if d.ID != tid || d.Spans.Name == "" {
		t.Fatalf("trace detail incomplete: %+v", d)
	}
	if d.Profile == nil {
		t.Error("SELECT trace retained without operator profile")
	}
	if code, _ := getTrace(t, s, "feedfeedfeedfeed"); code != http.StatusNotFound {
		t.Errorf("bogus trace id = %d, want 404", code)
	}
}

// TestTraceClientIDAdopted pins the ID-propagation contract: a well-formed
// client X-Trace-ID is adopted end to end; a malformed one is replaced by a
// minted ID.
func TestTraceClientIDAdopted(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	rec := doSparqlTraced(s, laptopQuery(), map[string]string{"X-Trace-ID": "client-trace.01"})
	if got := rec.Header().Get("X-Trace-ID"); got != "client-trace.01" {
		t.Fatalf("well-formed client trace id not adopted: %q", got)
	}
	if code, d := getTrace(t, s, "client-trace.01"); code != http.StatusOK || d.ID != "client-trace.01" {
		t.Fatalf("client trace id not retained: %d %+v", code, d)
	}

	rec = doSparqlTraced(s, laptopQuery(), map[string]string{"X-Trace-ID": "bad id\nwith junk"})
	got := rec.Header().Get("X-Trace-ID")
	if got == "" || strings.ContainsAny(got, " \n") {
		t.Fatalf("malformed client id not replaced: %q", got)
	}
}

// TestTraceCachedAnswerLinksFiller: a cache hit reuses the filler's trace ID
// on the response so dashboards always land on a retained execution, and the
// serve is recorded against that trace.
func TestTraceCachedAnswerLinksFiller(t *testing.T) {
	s, _ := newTestServer(t, resilienceConfig())
	q := laptopQuery()
	fill := doSparqlTraced(s, q, nil)
	fillID := fill.Header().Get("X-Trace-ID")
	if fillID == "" {
		t.Fatal("filler got no trace id")
	}
	hit := doSparqlTraced(s, q, nil)
	if hit.Header().Get("X-Cache") != "hit" {
		t.Fatalf("second request X-Cache = %q, want hit", hit.Header().Get("X-Cache"))
	}
	if got := hit.Header().Get("X-Trace-ID"); got != fillID {
		t.Fatalf("cache hit trace id %q, want filler's %q", got, fillID)
	}
	code, d := getTrace(t, s, fillID)
	if code != http.StatusOK {
		t.Fatalf("filler trace gone: %d", code)
	}
	if d.Serves["hit"] != 1 {
		t.Errorf("serves = %v, want hit:1", d.Serves)
	}
}

// TestTraceErrorRetainedAlways: failed executions are retained at 100% with
// the abort taxonomy as outcome, and are filterable by it.
func TestTraceErrorRetainedAlways(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if err := fault.Configure("server.sparql.exec=error:boom@100"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()
	var ids []string
	for i := 0; i < 5; i++ {
		rec := doSparqlTraced(s, fmt.Sprintf("SELECT ?s WHERE { ?s ?p%d ?o }", i), nil)
		if rec.Code == http.StatusOK {
			t.Fatalf("fault-injected query %d succeeded", i)
		}
		ids = append(ids, rec.Header().Get("X-Trace-ID"))
	}
	out := searchTraces(t, s, "outcome=error&kind=sparql")
	got := map[string]bool{}
	for _, tr := range out.Traces {
		got[tr.ID] = true
		if tr.Err == "" {
			t.Errorf("error trace %s lost its message", tr.ID)
		}
	}
	for _, id := range ids {
		if !got[id] {
			t.Errorf("errored trace %s not retained (errors must be kept at 100%%)", id)
		}
	}
	if reason := searchTraces(t, s, "reason=error"); len(reason.Traces) < len(ids) {
		t.Errorf("reason=error found %d, want ≥%d", len(reason.Traces), len(ids))
	}
}

// TestTraceAliasDeprecated: the legacy single-slot GET /api/trace is gone;
// traces resolve by ID through /api/traces/{id}.
func TestTraceAliasDeprecated(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	doSparqlTraced(s, laptopQuery(), nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/api/trace", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("/api/trace = %d, want 404: %s", rec.Code, rec.Body.String())
	}
}

// TestTraceRetentionDisabled: with retention off the search API answers 409,
// /sparql still works, and no X-Trace-ID exemplar machinery interferes.
func TestTraceRetentionDisabled(t *testing.T) {
	s, _ := newTestServer(t, Config{TraceRetention: obs.TraceStoreConfig{Disabled: true}})
	rec := doSparqlTraced(s, laptopQuery(), nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/sparql with retention off = %d", rec.Code)
	}
	for _, p := range []string{"/api/traces", "/api/traces/0123456789abcdef"} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", p, nil))
		if rec.Code != http.StatusConflict {
			t.Errorf("GET %s with retention off = %d, want 409", p, rec.Code)
		}
	}
}

// TestTraceExemplarResolves closes the drill-down loop: the OpenMetrics
// exposition carries the query's trace ID as an exemplar on the HTTP
// latency histogram, and that ID resolves through /api/traces/{id}.
func TestTraceExemplarResolves(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	rec := doSparqlTraced(s, laptopQuery(), nil)
	tid := rec.Header().Get("X-Trace-ID")
	if tid == "" {
		t.Fatal("no trace id on response")
	}

	mreq := httptest.NewRequest("GET", "/metrics", nil)
	mreq.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	mrec := httptest.NewRecorder()
	s.ServeHTTP(mrec, mreq)
	if ct := mrec.Header().Get("Content-Type"); !strings.Contains(ct, "openmetrics-text") {
		t.Fatalf("content negotiation failed: Content-Type %q", ct)
	}
	body := mrec.Body.String()
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Fatal("OpenMetrics exposition missing # EOF terminator")
	}
	want := `# {trace_id="` + tid + `"}`
	attached := false
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "rdfa_http_request_seconds_bucket") && strings.Contains(line, want) {
			attached = true
			break
		}
	}
	if !attached {
		t.Fatalf("trace %s not attached as an exemplar to rdfa_http_request_seconds", tid)
	}
	if code, _ := getTrace(t, s, tid); code != http.StatusOK {
		t.Fatalf("exemplar trace id does not resolve: %d", code)
	}

	// The default 0.0.4 exposition must stay exemplar-free.
	prec := httptest.NewRecorder()
	s.ServeHTTP(prec, httptest.NewRequest("GET", "/metrics", nil))
	if strings.Contains(prec.Body.String(), "# {") {
		t.Fatal("exemplar leaked into the Prometheus 0.0.4 exposition")
	}
}

// BenchmarkTraceRetentionOverhead measures the full /sparql request path
// with the tail-sampling retention store armed versus disabled. The cache
// is off so every iteration executes the query, offers the completed trace
// to the sampler and (when retained) attaches an exemplar — the acceptance
// bar is hot-path overhead of a few percent at most.
func BenchmarkTraceRetentionOverhead(b *testing.B) {
	q := laptopQuery()
	for _, bc := range []struct {
		name string
		cfg  Config
	}{
		{"retention", Config{}},
		{"disabled", Config{TraceRetention: obs.TraceStoreConfig{Disabled: true}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s, _ := newTestServer(b, bc.cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rec := doSparqlTraced(s, q, nil); rec.Code != http.StatusOK {
					b.Fatalf("/sparql = %d", rec.Code)
				}
			}
		})
	}
}

// TestTraceConcurrentRetainSearch hammers retention and search from many
// goroutines through the public HTTP surface — meaningful under -race.
func TestTraceConcurrentRetainSearch(t *testing.T) {
	s, _ := newTestServer(t, Config{TraceRetention: obs.TraceStoreConfig{MaxTraces: 32}})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				doSparqlTraced(s, fmt.Sprintf("SELECT ?s WHERE { ?s ?p%d_%d ?o }", w, i), nil)
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest("GET", "/api/traces?limit=10", nil))
				rec = httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest("GET", "/api/traces/0123456789abcdef", nil))
			}
		}()
	}
	wg.Wait()
	out := searchTraces(t, s, "")
	if len(out.Traces) == 0 || len(out.Traces) > 32 {
		t.Fatalf("retained %d traces, want 1..32", len(out.Traces))
	}
}
