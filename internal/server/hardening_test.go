package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"rdfanalytics/internal/fault"
	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/sparql"
)

func hardeningGraph(n int) *rdf.Graph {
	var sb strings.Builder
	sb.WriteString("@prefix ex: <http://e/> .\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "ex:a%d a ex:Item ; ex:p %d .\n", i, i)
		fmt.Fprintf(&sb, "ex:b%d ex:q %d .\n", i, i)
	}
	return rdf.MustLoadTurtle(sb.String())
}

// TestRecoveryMiddleware: a handler panic (injected via the X-Fault site)
// answers 500 with a JSON error, increments the panic counter, and leaves
// the server serving subsequent requests.
func TestRecoveryMiddleware(t *testing.T) {
	if err := fault.Configure("server.handler.boom=panic:kaboom"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()
	srv := New(hardeningGraph(5), "http://e/")
	before := metricValue(t, srv, "rdfa_server_panics_total")

	req := httptest.NewRequest("GET", "/api/state", nil)
	req.Header.Set("X-Fault", "boom")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking request: status %d, want 500", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "json") {
		t.Fatalf("panicking request: content-type %q", ct)
	}
	if after := metricValue(t, srv, "rdfa_server_panics_total"); after != before+1 {
		t.Fatalf("rdfa_server_panics_total = %v, want %v", after, before+1)
	}
	// The server must still answer.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/api/state", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("follow-up request: status %d, want 200", rec.Code)
	}
}

// metricValue scrapes one counter from the server's /metrics output.
func metricValue(t *testing.T, h http.Handler, name string) float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			var v float64
			fmt.Sscanf(rest, "%g", &v)
			return v
		}
	}
	return 0
}

// TestMaxBodyBytes: an oversized POST body answers 413 with a JSON error.
func TestMaxBodyBytes(t *testing.T) {
	srv := NewWithConfig(hardeningGraph(5), "http://e/", Config{MaxBodyBytes: 128})
	big := strings.Repeat("x", 1024)
	body := url.Values{"query": {big}}.Encode()
	req := httptest.NewRequest("POST", "/sparql", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (body: %s)", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "error") {
		t.Fatalf("413 body not structured JSON: %s", rec.Body.String())
	}
	// A small body still works.
	body = url.Values{"query": {"SELECT * WHERE { ?s ?p ?o } LIMIT 1"}}.Encode()
	req = httptest.NewRequest("POST", "/sparql", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("small body: status %d, want 200", rec.Code)
	}
}

// TestSessionTTLSweep: idle sessions are expired by the sweep and counted.
func TestSessionTTLSweep(t *testing.T) {
	srv := New(hardeningGraph(5), "http://e/")
	for _, id := range []string{"s1", "s2", "s3"} {
		req := httptest.NewRequest("GET", "/api/state", nil)
		req.Header.Set("X-Session", id)
		srv.ServeHTTP(httptest.NewRecorder(), req)
	}
	before := metricValue(t, srv, "rdfa_http_sessions_expired_total")
	if n := srv.sweepExpired(time.Now().Add(-time.Minute)); n != 0 {
		t.Fatalf("fresh sessions expired: %d", n)
	}
	if n := srv.sweepExpired(time.Now().Add(time.Minute)); n != 3 {
		t.Fatalf("expired %d sessions, want 3", n)
	}
	if after := metricValue(t, srv, "rdfa_http_sessions_expired_total"); after != before+3 {
		t.Fatalf("rdfa_http_sessions_expired_total = %v, want %v", after, before+3)
	}
	srv.mu.Lock()
	left := len(srv.sessions)
	srv.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d sessions left after sweep", left)
	}
}

// TestSweeperLifecycle: a TTL-configured server runs and stops its sweeper.
func TestSweeperLifecycle(t *testing.T) {
	srv := NewWithConfig(hardeningGraph(3), "http://e/", Config{SessionTTL: time.Hour})
	if srv.sweepStop == nil {
		t.Fatal("sweeper not started despite SessionTTL")
	}
	srv.Close() // must not hang
}

// TestQueryTimeoutEndpoint: with a short server-level deadline and an
// injected join delay, /sparql answers a structured 504 within ~2x the
// deadline, the timeout counter moves, and the server stays healthy.
func TestQueryTimeoutEndpoint(t *testing.T) {
	if err := fault.Configure("sparql.join=delay:300ms"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()
	srv := NewWithConfig(hardeningGraph(60), "http://e/", Config{QueryTimeout: 100 * time.Millisecond})
	before := metricValue(t, srv, "rdfa_sparql_queries_timeout_total")

	q := url.QueryEscape("SELECT * WHERE { ?a <http://e/p> ?x . ?b <http://e/q> ?y }")
	start := time.Now()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/sparql?query="+q, nil))
	elapsed := time.Since(start)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body: %s)", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"reason":"timeout"`) {
		t.Fatalf("504 body missing timeout reason: %s", rec.Body.String())
	}
	// The deadline is 100ms and the injected delay 300ms: the abort must
	// land well before the query would have finished naturally.
	if elapsed > 2*time.Second {
		t.Fatalf("timeout answered after %s", elapsed)
	}
	if after := metricValue(t, srv, "rdfa_sparql_queries_timeout_total"); after != before+1 {
		t.Fatalf("rdfa_sparql_queries_timeout_total = %v, want %v", after, before+1)
	}
	// Server healthy afterwards.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/api/state", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("follow-up: status %d", rec.Code)
	}
}

// slowJoinQuery is a request for a two-pattern join (the sparql.join fault
// site) carrying ctx as the client's context.
func slowJoinQuery(ctx context.Context) *http.Request {
	q := url.QueryEscape("SELECT * WHERE { ?a <http://e/p> ?x . ?b <http://e/q> ?y }")
	return httptest.NewRequest("GET", "/sparql?query="+q, nil).WithContext(ctx)
}

// TestRequestDeadlineBeatsExecutionTimer forces the interleaving that made
// TestQueryTimeoutEndpoint flaky: the request's deadline expires while the
// execution's own timer is an hour away, so the singleflight abandonment —
// a cancel with the deadline as cause — is the only thing that can stop the
// evaluation. It is a timeout everywhere it is reported: 504, the engine's
// counters, the retained trace.
func TestRequestDeadlineBeatsExecutionTimer(t *testing.T) {
	if err := fault.Configure("sparql.join=delay:1h"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()
	srv := NewWithConfig(hardeningGraph(60), "http://e/", Config{QueryTimeout: time.Hour})
	timeouts := metricValue(t, srv, "rdfa_sparql_queries_timeout_total")
	cancelled := metricValue(t, srv, "rdfa_sparql_queries_cancelled_total")

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, slowJoinQuery(ctx))
	if rec.Code != http.StatusGatewayTimeout || !strings.Contains(rec.Body.String(), `"reason":"timeout"`) {
		t.Fatalf("status %d, want 504 timeout (body: %s)", rec.Code, rec.Body.String())
	}
	if got := metricValue(t, srv, "rdfa_sparql_queries_timeout_total"); got != timeouts+1 {
		t.Errorf("rdfa_sparql_queries_timeout_total = %v, want %v", got, timeouts+1)
	}
	if got := metricValue(t, srv, "rdfa_sparql_queries_cancelled_total"); got != cancelled {
		t.Errorf("rdfa_sparql_queries_cancelled_total moved to %v for a timeout", got)
	}
	if out := searchTraces(t, srv, "kind=sparql&outcome=timeout"); len(out.Traces) != 1 {
		t.Errorf("%d retained traces with outcome=timeout, want 1", len(out.Traces))
	}
}

// TestClientDisconnectIsStill499: a client that goes away mid-join is a
// cancellation, not a timeout.
func TestClientDisconnectIsStill499(t *testing.T) {
	if err := fault.Configure("sparql.join=delay:1h"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()
	srv := NewWithConfig(hardeningGraph(60), "http://e/", Config{QueryTimeout: time.Hour})
	cancelled := metricValue(t, srv, "rdfa_sparql_queries_cancelled_total")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for fault.Hits("sparql.join") == 0 { // the join has started: hang up
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, slowJoinQuery(ctx))
	if rec.Code != StatusClientClosedRequest || !strings.Contains(rec.Body.String(), `"reason":"cancelled"`) {
		t.Fatalf("status %d, want 499 cancelled (body: %s)", rec.Code, rec.Body.String())
	}
	if got := metricValue(t, srv, "rdfa_sparql_queries_cancelled_total"); got != cancelled+1 {
		t.Errorf("rdfa_sparql_queries_cancelled_total = %v, want %v", got, cancelled+1)
	}
}

// TestBudgetEndpoint: a configured row budget turns a cross product into a
// structured 422.
func TestBudgetEndpoint(t *testing.T) {
	srv := NewWithConfig(hardeningGraph(200), "http://e/", Config{
		Limits: sparql.Limits{MaxIntermediateRows: 1000},
	})
	q := url.QueryEscape("SELECT * WHERE { ?a <http://e/p> ?x . ?b <http://e/q> ?y }")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/sparql?query="+q, nil))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (body: %s)", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"reason":"budget"`) {
		t.Fatalf("422 body missing budget reason: %s", rec.Body.String())
	}
}

// TestGraphFormsHonorRowBudget: Config.Limits governs every read form, not
// only SELECT — a cross product over budget through ASK, CONSTRUCT or
// DESCRIBE is refused with the structured 422 the SELECT gets.
func TestGraphFormsHonorRowBudget(t *testing.T) {
	srv := NewWithConfig(hardeningGraph(200), "http://e/", Config{
		Limits: sparql.Limits{MaxIntermediateRows: 1000},
	})
	const cross = "WHERE { ?a <http://e/p> ?x . ?b <http://e/q> ?y }"
	// The overshoot in the message is the count of whichever parallel worker
	// tripped the budget first; the rest must be SELECT's error.
	overshoot := regexp.MustCompile(`\(\d+ > `)
	var want string
	for _, q := range []string{
		"SELECT * " + cross,
		"ASK " + cross,
		"CONSTRUCT { ?a <http://e/r> ?b } " + cross,
		"DESCRIBE ?a " + cross,
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/sparql?query="+url.QueryEscape(q), nil))
		if rec.Code != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d, want 422 (body: %.200s)", q, rec.Code, rec.Body.String())
			continue
		}
		var body map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Errorf("%s: 422 body is not the structured error: %v", q, err)
			continue
		}
		delete(body, "request_id")
		got := overshoot.ReplaceAllString(fmt.Sprint(body), "(N > ")
		if want == "" {
			want = got // SELECT's
		}
		if body["reason"] != "budget" || got != want {
			t.Errorf("%s: error %s, want SELECT's %s", q, got, want)
		}
	}
}

// TestGracefulShutdownDrain: cancelling the run context while a request is
// in flight drains it — the client still gets its full response and Run
// returns nil.
func TestGracefulShutdownDrain(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		io.WriteString(w, "drained")
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- RunListener(ctx, ln, h, 5*time.Second) }()

	var (
		wg       sync.WaitGroup
		body     string
		reqErr   error
		respCode int
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get("http://" + ln.Addr().String() + "/")
		if err != nil {
			reqErr = err
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		body, respCode = string(b), resp.StatusCode
	}()
	<-started
	cancel() // begin shutdown with the request still in flight
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if reqErr != nil {
		t.Fatalf("in-flight request failed during drain: %v", reqErr)
	}
	if respCode != http.StatusOK || body != "drained" {
		t.Fatalf("drained response: code %d body %q", respCode, body)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("RunListener returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunListener did not return after drain")
	}
	// New connections are refused after shutdown.
	if _, err := http.Get("http://" + ln.Addr().String() + "/"); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}
