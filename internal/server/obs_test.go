package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/fault"
	"rdfanalytics/internal/rdf"
)

// TestMetricsEndpoint drives a few requests through the server and parses
// GET /metrics line by line, checking the exposition format and that the
// metric families the telemetry contract promises are present with
// plausible values — among them the two series an availability and a
// latency objective are read off (DESIGN.md §6.3): a 5xx in
// rdfa_http_requests_total, and the 0.25 s bucket of an endpoint's
// rdfa_http_request_seconds.
func TestMetricsEndpoint(t *testing.T) {
	ts := testServer(t)
	if err := fault.Configure("server.handler.boom=panic:kaboom"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()

	// Generate traffic: a state fetch, a SPARQL query, a 404 and a 500.
	getJSON(t, ts.URL+"/api/state")
	req, err := http.NewRequest("GET", ts.URL+"/api/state", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Fault", "boom")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking request = %d, want 500", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/sparql?query=" + url.QueryEscape(
		`SELECT ?s WHERE { ?s a <`+datagen.ExampleNS+`Laptop> } LIMIT 3`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sparql status = %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}

	values := map[string]string{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 4 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				t.Errorf("malformed comment line %q", line)
			}
			continue
		}
		// The value is after the LAST space: label values ("GET /api/state")
		// may themselves contain spaces.
		cut := strings.LastIndex(line, " ")
		if cut < 0 {
			t.Errorf("malformed sample line %q", line)
			continue
		}
		values[line[:cut]] = line[cut+1:]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	for _, want := range []string{
		`rdfa_http_requests_total{endpoint="GET /api/state",status="200"}`,
		`rdfa_http_request_seconds_count{endpoint="GET /api/state"}`,
		`rdfa_http_request_seconds_bucket{endpoint="GET /api/state",le="0.25"}`,
		`rdfa_http_sessions_created_total`,
		`rdfa_http_active_sessions`,
		`rdfa_sparql_query_phase_seconds_count{phase="parse"}`,
		`rdfa_sparql_operator_seconds_count{op="match"}`,
		`rdfa_sparql_exec_seconds_count`,
		`rdfa_rdf_index_scans_total`,
	} {
		if _, ok := values[want]; !ok {
			t.Errorf("metric %s missing from /metrics", want)
		}
	}
	// The registry is process-global, so other tests in the package may
	// have hit /api/state too — assert at least this test's request landed.
	if v := values[`rdfa_http_requests_total{endpoint="GET /api/state",status="200"}`]; v == "" || v == "0" {
		t.Errorf("state request count = %q, want >= 1", v)
	}
	if v := values[`rdfa_http_request_seconds_bucket{endpoint="GET /api/state",le="0.25"}`]; v == "" || v == "0" {
		t.Errorf("state requests under 0.25 s = %q, want >= 1", v)
	}
	errors5xx := 0
	for k, v := range values {
		if strings.HasPrefix(k, "rdfa_http_requests_total{") && strings.Contains(k, `status="500"`) && v != "0" {
			errors5xx++
		}
	}
	if errors5xx == 0 {
		t.Errorf(`no rdfa_http_requests_total{status="500"} series counts the panicking request`)
	}
	if v := values[`rdfa_http_active_sessions`]; v != "1" {
		t.Errorf("active sessions = %s, want 1", v)
	}
	if v := values[`rdfa_rdf_index_scans_total`]; v == "0" {
		t.Error("index scans should be nonzero after a query")
	}
}

// TestMiddlewareStatusCapture checks the status label records what the
// handler actually wrote, for both explicit WriteHeader calls and implicit
// 200s, including routes the mux does not know.
func TestMiddlewareStatusCapture(t *testing.T) {
	ts := testServer(t)
	for path, want := range map[string]int{
		"/api/state":   http.StatusOK,
		"/no/such/url": http.StatusNotFound,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	// A bad-request POST exercises an explicit error status.
	resp, err := http.Post(ts.URL+"/api/click/class", "application/json",
		strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad click = %d, want 400", resp.StatusCode)
	}

	body := metricsBody(t, ts.URL)
	for _, want := range []string{
		`rdfa_http_requests_total{endpoint="unmatched",status="404"}`,
		`rdfa_http_requests_total{endpoint="POST /api/click/class",status="400"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %s:\n%s", want, body)
		}
	}
}

func metricsBody(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestSessionLRUEviction fills the session table past MaxSessions and
// checks the least-recently-used session is the one evicted.
func TestSessionLRUEviction(t *testing.T) {
	g := datagen.SmallProducts()
	rdf.Materialize(g)
	s := New(g, datagen.ExampleNS)

	req := func(id string) *http.Request {
		r := httptest.NewRequest("GET", "/api/state", nil)
		r.Header.Set("X-Session", id)
		return r
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < MaxSessions; i++ {
		s.sessionFor(req(fmt.Sprintf("s%d", i)))
	}
	// Touch s0 so it becomes the most recently used; s1 is now the LRU.
	s.sessionFor(req("s0"))
	s.sessionFor(req("overflow"))
	if len(s.sessions) != MaxSessions {
		t.Fatalf("sessions = %d, want %d", len(s.sessions), MaxSessions)
	}
	if _, ok := s.sessions["s1"]; ok {
		t.Error("s1 (LRU) should have been evicted")
	}
	for _, keep := range []string{"s0", "overflow"} {
		if _, ok := s.sessions[keep]; !ok {
			t.Errorf("session %s should have survived", keep)
		}
	}
}

// postTraced POSTs an empty JSON body to url and returns the response's
// X-Trace-ID, failing on a non-200.
func postTraced(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %d", url, resp.StatusCode)
	}
	return resp.Header.Get("X-Trace-ID")
}

// getTraced GETs url and returns the response's X-Trace-ID, failing on a
// non-200.
func getTraced(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	return resp.Header.Get("X-Trace-ID")
}

// fetchTrace decodes GET /api/traces/{id} into out, failing on a non-200.
func fetchTrace(t *testing.T, base, id string, out any) {
	t.Helper()
	resp, err := http.Get(base + "/api/traces/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /api/traces/%s = %d", id, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestTraceEndpoint runs an analytic query and a protocol query, then
// fetches their span trees from GET /api/traces/{id} by the X-Trace-ID of
// each response.
func TestTraceEndpoint(t *testing.T) {
	ts := testServer(t)

	// Analytic query: Laptop count grouped by manufacturer.
	postJSON(t, ts.URL+"/api/click/class", map[string]any{"class": datagen.ExampleNS + "Laptop"})
	postJSON(t, ts.URL+"/api/groupby", map[string]any{
		"path": []map[string]any{{"p": datagen.ExampleNS + "manufacturer"}}})
	postJSON(t, ts.URL+"/api/aggregate", map[string]any{"op": "COUNT"})
	runID := postTraced(t, ts.URL+"/api/run")
	// Protocol query.
	sparqlID := getTraced(t, ts.URL+"/sparql?query="+url.QueryEscape(
		`SELECT ?s WHERE { ?s a <`+datagen.ExampleNS+`Laptop> }`))

	var analytics struct {
		Spans struct {
			Name     string `json:"name"`
			Children []json.RawMessage
		} `json:"spans"`
	}
	fetchTrace(t, ts.URL, runID, &analytics)
	if analytics.Spans.Name != "run_analytics" {
		t.Errorf("analytics trace = %+v", analytics.Spans)
	}
	if len(analytics.Spans.Children) == 0 {
		t.Error("analytics trace has no child spans")
	}
	var protocol struct {
		Spans struct {
			Name string `json:"name"`
		} `json:"spans"`
	}
	fetchTrace(t, ts.URL, sparqlID, &protocol)
	if protocol.Spans.Name != "sparql" {
		t.Errorf("sparql trace = %+v", protocol.Spans)
	}
}

// TestSlowQueryLog checks a threshold of one nanosecond logs every query
// with its plan summary: the layers' spans and the engine's top-level
// operators, for a /sparql query and for a run alike.
func TestSlowQueryLog(t *testing.T) {
	g := datagen.SmallProducts()
	rdf.Materialize(g)
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	srv := httptest.NewServer(NewWithConfig(g, datagen.ExampleNS, Config{
		SlowQuery:       time.Nanosecond,
		SlowQueryLogger: logger,
	}))
	defer srv.Close()

	driveWorkload(t, srv.URL)
	logged := buf.String()
	for _, want := range []string{"slow query", "kind=sparql", "Laptop", "plan="} {
		if !strings.Contains(logged, want) {
			t.Errorf("slow log missing %q:\n%s", want, logged)
		}
	}
	for _, kind := range []string{"sparql", "analytics"} {
		var line string
		for _, l := range strings.Split(logged, "\n") {
			if strings.Contains(l, "kind="+kind+" ") {
				line = l
				break
			}
		}
		if !strings.Contains(line, "match=") {
			t.Errorf("the %s line's plan names no engine operator: %q", kind, line)
		}
	}
}
