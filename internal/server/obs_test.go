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
	"rdfanalytics/internal/rdf"
)

// TestMetricsEndpoint drives a few requests through the server and parses
// GET /metrics line by line, checking the exposition format and that the
// metric families the telemetry contract promises are present with
// plausible values.
func TestMetricsEndpoint(t *testing.T) {
	ts := testServer(t)

	// Generate traffic: a state fetch, a SPARQL query, and a 404.
	getJSON(t, ts.URL+"/api/state")
	resp, err := http.Get(ts.URL + "/sparql?query=" + url.QueryEscape(
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
		`rdfa_http_sessions_created_total`,
		`rdfa_http_active_sessions`,
		`rdfa_sparql_query_phase_seconds_count{phase="parse"}`,
		`rdfa_sparql_query_phase_seconds_count{phase="match"}`,
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

// TestTraceEndpoint runs an analytic query and a protocol query, then
// fetches their span trees from GET /api/trace.
func TestTraceEndpoint(t *testing.T) {
	ts := testServer(t)

	resp, err := http.Get(ts.URL + "/api/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace before any query = %d, want 404", resp.StatusCode)
	}

	// Analytic query: Laptop count grouped by manufacturer.
	postJSON(t, ts.URL+"/api/click/class", map[string]any{"class": datagen.ExampleNS + "Laptop"})
	postJSON(t, ts.URL+"/api/groupby", map[string]any{
		"path": []map[string]any{{"p": datagen.ExampleNS + "manufacturer"}}})
	postJSON(t, ts.URL+"/api/aggregate", map[string]any{"op": "COUNT"})
	postJSON(t, ts.URL+"/api/run", map[string]any{})
	// Protocol query.
	resp, err = http.Get(ts.URL + "/sparql?query=" + url.QueryEscape(
		`SELECT ?s WHERE { ?s a <`+datagen.ExampleNS+`Laptop> }`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var out struct {
		Analytics *struct {
			Name     string `json:"name"`
			Children []json.RawMessage
		} `json:"analytics"`
		SPARQL *struct {
			Name string `json:"name"`
		} `json:"sparql"`
	}
	resp, err = http.Get(ts.URL + "/api/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Analytics == nil || out.Analytics.Name != "run_analytics" {
		t.Errorf("analytics trace = %+v", out.Analytics)
	}
	if out.Analytics != nil && len(out.Analytics.Children) == 0 {
		t.Error("analytics trace has no child spans")
	}
	if out.SPARQL == nil || out.SPARQL.Name != "sparql" {
		t.Errorf("sparql trace = %+v", out.SPARQL)
	}
}

// TestSlowQueryLog checks a threshold of one nanosecond logs every query
// with its plan summary, and the default config logs nothing.
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

	resp, err := http.Get(srv.URL + "/sparql?query=" + url.QueryEscape(
		`SELECT ?s WHERE { ?s a <`+datagen.ExampleNS+`Laptop> } LIMIT 1`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	logged := buf.String()
	for _, want := range []string{"slow query", "kind=sparql", "Laptop", "plan="} {
		if !strings.Contains(logged, want) {
			t.Errorf("slow log missing %q:\n%s", want, logged)
		}
	}
}
