package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/viz"
)

// inSession sends one request of session through the full middleware stack
// in-process.
func inSession(s *Server, session, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	req.Header.Set("X-Session", session)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// doRun sends one POST /api/run for session and returns status, X-Cache,
// Retry-After and body.
func doRun(s *Server, session string) (int, string, string, []byte) {
	rec := inSession(s, session, "POST", "/api/run", "")
	return rec.Code, rec.Header().Get("X-Cache"), rec.Header().Get("Retry-After"), rec.Body.Bytes()
}

// clicks sends session's requests, each a path and a JSON body, and fails
// on any but a 200.
func clicks(t *testing.T, s *Server, session string, calls ...string) {
	t.Helper()
	for i := 0; i+1 < len(calls); i += 2 {
		if rec := inSession(s, session, "POST", calls[i], calls[i+1]); rec.Code != http.StatusOK {
			t.Fatalf("%s %s = %d %s", session, calls[i], rec.Code, rec.Body)
		}
	}
}

// laptopsBy puts session on laptops, grouped by the property named local and
// counted.
func laptopsBy(t *testing.T, s *Server, session, local string) {
	t.Helper()
	ns := datagen.ExampleNS
	clicks(t, s, session,
		"/api/click/class", `{"class":"`+ns+`Laptop"}`,
		"/api/groupby", `{"path":[{"p":"`+ns+local+`"}]}`,
		"/api/aggregate", `{"op":"COUNT"}`)
}

// TestRunSharesTheAnswerCache: two sessions make the same Σ click. The
// second is a hit on the first one's execution — the same bytes, the
// filler's trace, no trace of its own — and its chart, CSV export and reload
// all read the frame it adopted, which the two sessions then read at once.
// An update in between makes the next run a miss.
func TestRunSharesTheAnswerCache(t *testing.T) {
	s, _ := newTestServer(t, resilienceConfig())
	laptopsBy(t, s, "a", "manufacturer")
	laptopsBy(t, s, "b", "manufacturer")
	offers := func() int {
		st := s.oplog.TraceStats()
		return st.Retained + int(st.DroppedSampled+st.DroppedEvicted+st.DroppedOversize)
	}

	first := inSession(s, "a", "POST", "/api/run", "")
	if first.Code != http.StatusOK || first.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first run = %d, X-Cache %q", first.Code, first.Header().Get("X-Cache"))
	}
	offers0 := offers()
	second := inSession(s, "b", "POST", "/api/run", "")
	if second.Code != http.StatusOK || second.Header().Get("X-Cache") != "hit" {
		t.Fatalf("same run from another session = %d, X-Cache %q", second.Code, second.Header().Get("X-Cache"))
	}
	if !bytes.Equal(second.Body.Bytes(), first.Body.Bytes()) {
		t.Errorf("hit body differs from the miss body:\n%s\n%s", second.Body, first.Body)
	}
	if got, want := second.Header().Get("X-Trace-ID"), first.Header().Get("X-Trace-ID"); got != want {
		t.Errorf("hit points at trace %q, the filler's is %q", got, want)
	}
	if d := offers() - offers0; d != 0 {
		t.Errorf("a hit offered %d traces", d)
	}

	// An update between two runs: the next one executes again.
	if code := doUpdate(s, `INSERT DATA { <`+datagen.ExampleNS+`lateLaptop> a <`+datagen.ExampleNS+`Laptop> }`); code != http.StatusOK {
		t.Fatalf("update = %d", code)
	}
	if code, xc, _, body := doRun(s, "a"); code != http.StatusOK || xc != "miss" {
		t.Fatalf("run after an update = %d, X-Cache %q: %s", code, xc, body)
	}
	if _, xc, _, _ := doRun(s, "b"); xc != "hit" {
		t.Fatalf("b after a's refill: X-Cache %q", xc)
	}

	s.mu.Lock()
	frame := s.sessions["b"].sess.Answer()
	shared := frame == s.sessions["a"].sess.Answer()
	s.mu.Unlock()
	if !shared {
		t.Fatal("the sessions hold two frames for one answer")
	}
	var wg sync.WaitGroup
	for _, session := range []string{"a", "b"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			chart := inSession(s, session, "GET", "/api/chart?type=bar", "")
			csv := inSession(s, session, "GET", "/api/answer.csv", "")
			reload := inSession(s, session, "POST", "/api/load-answer", "")
			if chart.Code != http.StatusOK || !strings.Contains(chart.Body.String(), "<svg") ||
				csv.Code != http.StatusOK || strings.Count(csv.Body.String(), "\n") != len(frame.Rows())+1 ||
				reload.Code != http.StatusOK {
				t.Errorf("%s: chart %d, csv %d %q, load-answer %d", session, chart.Code, csv.Code, csv.Body, reload.Code)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := viz.AnswerSeries(frame, 0); err != nil {
				t.Error(err)
			}
			if n := frame.LoadAsDataset().Len(); n == 0 {
				t.Error("the shared frame reloads as an empty dataset")
			}
		}()
	}
	wg.Wait()
}

// TestReloadedRunsBypass: two sessions reload different answers and make
// the same Σ click on them — the same HIFUN text over the same intention,
// each over its own copied graph. Neither run is cached; each session gets
// its own frame.
func TestReloadedRunsBypass(t *testing.T) {
	s, _ := newTestServer(t, resilienceConfig())
	groups := map[string]int{}
	for session, local := range map[string]string{"a": "manufacturer", "b": "releaseDate"} {
		laptopsBy(t, s, session, local)
		code, _, _, _ := doRun(s, session)
		s.mu.Lock()
		groups[session] = len(s.sessions[session].sess.Answer().Rows())
		s.mu.Unlock()
		if code != http.StatusOK {
			t.Fatalf("%s: first-level run = %d", session, code)
		}
		clicks(t, s, session, "/api/load-answer", "", "/api/aggregate", `{"op":"COUNT"}`)
	}
	if groups["a"] == groups["b"] {
		t.Fatalf("both first-level answers have %d rows; the check needs them apart", groups["a"])
	}
	for _, session := range []string{"a", "b", "a"} {
		code, xc, _, body := doRun(s, session)
		if code != http.StatusOK || xc != "bypass" {
			t.Fatalf("%s: reloaded-level run = %d, X-Cache %q", session, code, xc)
		}
		s.mu.Lock()
		ans := s.sessions[session].sess.Answer()
		s.mu.Unlock()
		if n, _ := ans.Rows()[0][0].Int(); int(n) != groups[session] {
			t.Errorf("%s counts %d tuples, its reloaded answer has %d: %s", session, n, groups[session], body)
		}
	}
}

// TestRunKeyIsNotItsDisplayText: two manufacturers share a local name, so
// the two sessions' breadcrumbs and HIFUN texts print alike; each still gets
// its own answer.
func TestRunKeyIsNotItsDisplayText(t *testing.T) {
	g := rdf.MustLoadTurtle(`@prefix ex: <http://e/> . @prefix o: <http://o/> .
ex:l1 a ex:Laptop ; ex:maker ex:DELL ; ex:price 10 .
ex:l2 a ex:Laptop ; ex:maker o:DELL ; ex:price 20 .
`)
	s := NewWithConfig(g, "http://e/", resilienceConfig())
	defer s.Close()
	for session, want := range map[string]string{"http://e/DELL": "10", "http://o/DELL": "20"} {
		clicks(t, s, session,
			"/api/click/class", `{"class":"http://e/Laptop"}`,
			"/api/click/value", `{"path":[{"p":"http://e/maker"}],"value":{"kind":"iri","value":"`+session+`"}}`,
			"/api/aggregate", `{"path":[{"p":"http://e/price"}],"op":"SUM"}`)
		code, xc, _, body := doRun(s, session)
		if code != http.StatusOK || xc != "miss" || !bytes.Contains(body, []byte(`"value":"`+want+`"`)) {
			t.Errorf("SUM over %s's laptops = %d, X-Cache %q: %s; want %s", session, code, xc, body, want)
		}
	}
}

// TestQueryTextCannotNameARun: a /sparql query whose text is byte-equal to
// a cached run's key misses — the two live in different namespaces.
func TestQueryTextCannotNameARun(t *testing.T) {
	s, _ := newTestServer(t, resilienceConfig())
	laptopsBy(t, s, "a", "manufacturer")
	if code, xc, _, _ := doRun(s, "a"); code != http.StatusOK || xc != "miss" {
		t.Fatalf("run = %d, X-Cache %q", code, xc)
	}
	s.mu.Lock()
	run, err := s.sessions["a"].sess.PrepareRun()
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if _, xc, _, _ := doRun(s, "a"); xc != "hit" {
		t.Fatalf("repeated run = X-Cache %q, want hit", xc)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/sparql?query="+url.QueryEscape(run.Key), nil))
	if xc := rec.Header().Get("X-Cache"); xc == "hit" || xc == "stale" || rec.Code != http.StatusBadRequest {
		t.Errorf("/sparql with the run's key text = %d X-Cache %q, want the 400 of a query that does not parse", rec.Code, xc)
	}
}

// TestRunParsesOnce: a run's miss parses its generated SPARQL once — the
// execution, the record's shape and the read set all come from that parse —
// and a run's hit parses nothing.
func TestRunParsesOnce(t *testing.T) {
	s, _ := newTestServer(t, resilienceConfig())
	laptopsBy(t, s, "a", "manufacturer")
	laptopsBy(t, s, "b", "manufacturer")
	for _, c := range []struct {
		session, xc string
		parses      uint64
	}{{"a", "miss", 1}, {"b", "hit", 0}, {"a", "hit", 0}} {
		p0 := parses()
		code, xc, _, body := doRun(s, c.session)
		if code != http.StatusOK || xc != c.xc {
			t.Fatalf("run of %s = %d %q, want 200 %q: %s", c.session, code, xc, c.xc, body)
		}
		if d := parses() - p0; d != c.parses {
			t.Errorf("a run %s parsed %d times, want %d", c.xc, d, c.parses)
		}
	}
}

// TestStartStateRunFollowsANewEntity: a Σ at the start state counts the
// start extension, the individuals of the graph, and its answer is cached.
// An INSERT DATA of a new individual under a predicate no run reads changes
// that extension, whose rule reads every predicate: the next run is a miss
// that counts the newcomer.
func TestStartStateRunFollowsANewEntity(t *testing.T) {
	s, _ := newTestServer(t, resilienceConfig())
	clicks(t, s, "a", "/api/aggregate", `{"op":"COUNT"}`)
	count := func(want string) int64 {
		t.Helper()
		code, xc, _, body := doRun(s, "a")
		if code != http.StatusOK || xc != want {
			t.Fatalf("run = %d, X-Cache %q, want %q: %s", code, xc, want, body)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		n, _ := s.sessions["a"].sess.Answer().Rows()[0][0].Int()
		return n
	}
	s.mu.Lock()
	members := int64(s.sessions["a"].sess.State().Ext.Len())
	s.mu.Unlock()
	if n := count("miss"); n != members || n == 0 {
		t.Fatalf("ε COUNT at the start state = %d, the extension holds %d", n, members)
	}
	if n := count("hit"); n != members {
		t.Fatalf("repeated run counts %d, want %d", n, members)
	}
	if code := doUpdate(s, `INSERT DATA { <`+datagen.ExampleNS+`newcomer> <`+datagen.ExampleNS+`colour> "grey" }`); code != http.StatusOK {
		t.Fatalf("update = %d", code)
	}
	if n := count("miss"); n != members+1 {
		t.Errorf("after a new individual the run counts %d, want %d", n, members+1)
	}
}

// TestPivotFromStartFollowsTheSchema: a Σ after a focus switch from the
// start state reads the start rule, so a schema write that takes an
// individual out of the start state outdates its cached run. SmallProducts'
// laptop3 is Lenovo's only product: declared a class, it leaves the start
// state and Lenovo leaves the manufacturers.
func TestPivotFromStartFollowsTheSchema(t *testing.T) {
	s, _ := newTestServer(t, resilienceConfig())
	ns := datagen.ExampleNS
	clicks(t, s, "a", "/api/pivot", `{"p":"`+ns+`manufacturer"}`, "/api/aggregate", `{"op":"COUNT"}`)
	count := func(want string) int64 {
		t.Helper()
		code, xc, _, body := doRun(s, "a")
		if code != http.StatusOK || xc != want {
			t.Fatalf("run = %d, X-Cache %q, want %q: %s", code, xc, want, body)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		n, _ := s.sessions["a"].sess.Answer().Rows()[0][0].Int()
		return n
	}
	if n := count("miss"); n != 4 {
		t.Fatalf("ε COUNT of the manufacturers = %d, want 4", n)
	}
	if n := count("hit"); n != 4 {
		t.Fatalf("repeated run counts %d, want 4", n)
	}
	if code := doUpdate(s, `INSERT DATA { <`+ns+`laptop3> <`+rdf.RDFType+`> <`+rdf.OWLClass+`> }`); code != http.StatusOK {
		t.Fatalf("update = %d", code)
	}
	if n := count("miss"); n != 3 {
		t.Errorf("after laptop3 became a class the run counts %d manufacturers, want 3", n)
	}
}

// TestAnswerCSVIsTheSelectCSV: a run's CSV export is the /sparql CSV of its
// frame's SPARQL text, byte for byte: one CSV writer, so a blank node prints
// as _:label in both.
func TestAnswerCSVIsTheSelectCSV(t *testing.T) {
	g := rdf.MustLoadTurtle(`@prefix ex: <http://e/> .
ex:l1 a ex:Laptop ; ex:maker ex:DELL ; ex:port _:usb ; ex:price 10 .
ex:l2 a ex:Laptop ; ex:maker ex:HP ; ex:port _:usb ; ex:price 20 .
ex:l3 a ex:Laptop ; ex:maker ex:HP ; ex:port _:hdmi ; ex:price 30 .
`)
	s := NewWithConfig(g, "http://e/", resilienceConfig())
	defer s.Close()
	for _, by := range []string{"maker", "port"} {
		clicks(t, s, by,
			"/api/click/class", `{"class":"http://e/Laptop"}`,
			"/api/groupby", `{"path":[{"p":"http://e/`+by+`"}]}`,
			"/api/aggregate", `{"path":[{"p":"http://e/price"}],"op":"SUM"}`)
		if code, _, _, body := doRun(s, by); code != http.StatusOK {
			t.Fatalf("run by %s = %d: %s", by, code, body)
		}
		export := inSession(s, by, "GET", "/api/answer.csv", "")
		s.mu.Lock()
		frame := s.sessions[by].sess.Answer()
		s.mu.Unlock()
		selected := doSparqlTraced(s, frame.SPARQL, map[string]string{"Accept": "text/csv"})
		if export.Code != http.StatusOK || selected.Code != http.StatusOK || export.Body.String() != selected.Body.String() {
			t.Errorf("by %s: answer.csv %d %q, /sparql CSV of its SPARQL %d %q", by, export.Code, export.Body, selected.Code, selected.Body)
		}
		if by == "port" && !strings.Contains(export.Body.String(), "\n_:") {
			t.Errorf("by port: no blank node in %q", export.Body)
		}
	}
}
