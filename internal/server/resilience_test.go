package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rdfanalytics/internal/conformance"
	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/fault"
	"rdfanalytics/internal/obs"
	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/resilience"
	"rdfanalytics/internal/sparql"
)

// resilienceConfig is the baseline overload-resilience test config: cache
// and gate both armed.
func resilienceConfig() Config {
	return Config{
		CacheBytes:    1 << 20,
		MaxConcurrent: 8,
		QueueDepth:    64,
		StaleWindow:   time.Hour,
		QueryTimeout:  10 * time.Second,
	}
}

// doSparql runs one GET /sparql through the full middleware stack in-process
// and returns status, X-Cache, Retry-After and body.
func doSparql(s *Server, query string) (int, string, string, []byte) {
	req := httptest.NewRequest("GET", "/sparql?query="+url.QueryEscape(query), nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec.Code, rec.Header().Get("X-Cache"), rec.Header().Get("Retry-After"), rec.Body.Bytes()
}

// waitUntil polls cond for up to 2s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func laptopQuery() string {
	return `SELECT ?s WHERE { ?s a <` + datagen.ExampleNS + `Laptop> }`
}

// TestHerdCollapse is the headline acceptance scenario: 64 concurrent
// identical queries against a cold cache execute the engine exactly once —
// one leader fills, 63 followers collapse onto it — and the herd's responses
// are byte-identical.
func TestHerdCollapse(t *testing.T) {
	s, _ := newTestServer(t, resilienceConfig())
	if err := fault.Configure("server.sparql.exec=delay:600ms"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()

	fills0, collapsed0, miss0 := cacheFills.Value(), cacheCollapsed.Value(), cacheMiss.Value()
	const herd = 64
	q := laptopQuery()
	type outcome struct {
		code  int
		cache string
		body  string
	}
	results := make([]outcome, herd)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			code, xc, _, body := doSparql(s, q)
			results[i] = outcome{code, xc, string(body)}
		}(i)
	}
	close(start)
	wg.Wait()

	counts := map[string]int{}
	for i, r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("request %d = %d %s", i, r.code, r.body)
		}
		if r.body != results[0].body {
			t.Fatalf("request %d body differs from request 0", i)
		}
		counts[r.cache]++
	}
	// The barrier guarantees every request arrives while the leader is still
	// inside the 600ms fault delay, so the split is exact.
	if counts["miss"] != 1 || counts["collapsed"] != herd-1 {
		t.Errorf("X-Cache split = %v, want 1 miss + %d collapsed", counts, herd-1)
	}
	if got := fault.Hits("server.sparql.exec"); got != 1 {
		t.Errorf("engine executed %d times for the herd, want exactly 1", got)
	}
	if d := cacheFills.Value() - fills0; d != 1 {
		t.Errorf("cache fills = %d, want 1", d)
	}
	if d := cacheCollapsed.Value() - collapsed0; d != herd-1 {
		t.Errorf("collapsed = %d, want %d", d, herd-1)
	}
	if d := cacheMiss.Value() - miss0; d != 1 {
		t.Errorf("misses = %d, want 1", d)
	}

	// The herd left a warm entry behind: the next request is a fresh hit and
	// still never touches the engine.
	code, xc, _, body := doSparql(s, q)
	if code != http.StatusOK || xc != "hit" || string(body) != results[0].body {
		t.Errorf("post-herd request = %d X-Cache=%q, want 200 hit with identical body", code, xc)
	}
	if got := fault.Hits("server.sparql.exec"); got != 1 {
		t.Errorf("engine ran again on a warm cache (%d hits)", got)
	}
}

// TestQueueOverflowShedsWhileCachedServes fills the one execution slot and
// the one queue position with slow distinct shapes, then checks (a) the next
// uncached arrival is shed with a structured 503 + Retry-After and (b) a
// cached fingerprint keeps serving hits throughout the overload.
func TestQueueOverflowShedsWhileCachedServes(t *testing.T) {
	cfg := resilienceConfig()
	cfg.MaxConcurrent, cfg.QueueDepth = 1, 1
	s, _ := newTestServer(t, cfg)

	qCached := laptopQuery()
	qSlow := `SELECT ?s ?m WHERE { ?s <` + datagen.ExampleNS + `manufacturer> ?m }`
	qQueued := `SELECT ?s ?p WHERE { ?s <` + datagen.ExampleNS + `price> ?p }`
	qShed := `SELECT ?s ?d WHERE { ?s <` + datagen.ExampleNS + `releaseDate> ?d }`

	// Prime the cache before arming the fault.
	if code, xc, _, _ := doSparql(s, qCached); code != http.StatusOK || xc != "miss" {
		t.Fatalf("prime = %d %q", code, xc)
	}
	if err := fault.Configure("server.sparql.exec=delay:600ms"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()

	var wg sync.WaitGroup
	launch := func(q string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code, _, _, body := doSparql(s, q); code != http.StatusOK {
				t.Errorf("background query = %d %s", code, body)
			}
		}()
	}
	launch(qSlow)
	waitUntil(t, "slot occupied", func() bool { return s.gate.Inflight() == 1 })
	launch(qQueued)
	waitUntil(t, "queue occupied", func() bool { return s.gate.Waiting() == 1 })

	// Queue full: the next distinct shape is shed, structured.
	code, _, retryAfter, body := doSparql(s, qShed)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("overflow = %d %s, want 503", code, body)
	}
	if retryAfter == "" {
		t.Error("shed response missing Retry-After")
	}
	var shed map[string]string
	if err := json.Unmarshal(body, &shed); err != nil {
		t.Fatalf("shed body not JSON: %s", body)
	}
	if shed["reason"] != "queue_full" {
		t.Errorf("shed reason = %q, want queue_full (%v)", shed["reason"], shed)
	}

	// The cached fingerprint is immune to the overload.
	if code, xc, _, _ := doSparql(s, qCached); code != http.StatusOK || xc != "hit" {
		t.Errorf("cached query during overload = %d %q, want 200 hit", code, xc)
	}
	wg.Wait() // slow + queued both still complete
}

// sparqlWith runs one GET /sparql carrying a Cache-Control header ("" for
// none) through the full middleware stack in-process.
func sparqlWith(s *Server, query, cacheControl string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("GET", "/sparql?query="+url.QueryEscape(query), nil)
	if cacheControl != "" {
		req.Header.Set("Cache-Control", cacheControl)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestStaleOnlyWhenAsked: an answer of an earlier graph version is served
// only to a request carrying Cache-Control: max-stale, only if it was filled
// within min(max-stale, StaleWindow), and it says so — X-Cache: stale, Age,
// and the version it was computed at. Without the directive an update is
// always seen, draining or not.
func TestStaleOnlyWhenAsked(t *testing.T) {
	ns := datagen.ExampleNS
	updates := 0
	// outdated primes the cache entry of a query new to s, then moves the
	// graph past it. It returns the query, the primed body and the version
	// the body was computed at.
	outdated := func(s *Server) (string, string, uint64) {
		t.Helper()
		q := fmt.Sprintf("%s LIMIT %d", laptopQuery(), 100+updates)
		code, xc, _, body := doSparql(s, q)
		if code != http.StatusOK || xc != "miss" {
			t.Fatalf("prime %q = %d %q", q, code, xc)
		}
		version := s.graph.Version()
		updates++
		if code := doUpdate(s, fmt.Sprintf(`INSERT DATA { <%sstaleProbe%d> a <%sLaptop> }`, ns, updates, ns)); code != http.StatusOK {
			t.Fatalf("update = %d", code)
		}
		return q, string(body), version
	}
	fresh := func(what string, rec *httptest.ResponseRecorder, outdatedBody string) {
		t.Helper()
		if xc := rec.Header().Get("X-Cache"); rec.Code != http.StatusOK || xc != "miss" ||
			rec.Body.String() == outdatedBody || rec.Header().Get("Age") != "" {
			t.Errorf("%s = %d X-Cache %q Age %q, want a fresh 200 miss with the update in it",
				what, rec.Code, xc, rec.Header().Get("Age"))
		}
	}
	s, _ := newTestServer(t, resilienceConfig()) // StaleWindow: one hour

	// No directive: a fresh answer, also while draining.
	q, body, _ := outdated(s)
	fresh("plain request", sparqlWith(s, q, ""), body)
	q, body, _ = outdated(s)
	s.SetDraining(true)
	fresh("plain request while draining", sparqlWith(s, q, ""), body)
	s.SetDraining(false)

	// max-stale=600, or a bare max-stale: the outdated answer, marked.
	for _, cc := range []string{"max-stale=600", "no-transform, max-stale"} {
		q, body, version := outdated(s)
		rec := sparqlWith(s, q, cc)
		if xc := rec.Header().Get("X-Cache"); rec.Code != http.StatusOK || xc != "stale" || rec.Body.String() != body {
			t.Errorf("%s = %d X-Cache %q, want 200 stale with the primed body", cc, rec.Code, xc)
		}
		if age, err := strconv.Atoi(rec.Header().Get("Age")); err != nil || age < 0 {
			t.Errorf("%s: Age %q, want delta-seconds", cc, rec.Header().Get("Age"))
		}
		if got := rec.Header().Get("X-Graph-Version"); got != strconv.FormatUint(version, 10) {
			t.Errorf("%s: X-Graph-Version %q, want %d", cc, got, version)
		}
	}

	// max-stale=0 accepts nothing stale; a malformed value is ignored.
	for _, cc := range []string{"max-stale=0", "max-stale=x", "max-stale=-1"} {
		q, body, _ := outdated(s)
		fresh(cc, sparqlWith(s, q, cc), body)
	}

	// A fill older than StaleWindow is never served, whatever the request
	// accepts.
	cfg := resilienceConfig()
	cfg.StaleWindow = time.Millisecond
	short, _ := newTestServer(t, cfg)
	q, body, _ = outdated(short)
	time.Sleep(5 * time.Millisecond)
	fresh("max-stale=600 past StaleWindow", sparqlWith(short, q, "max-stale=600"), body)
}

// TestDrainDuringQueuedAdmission covers the shutdown race: a request already
// admitted to the wait queue when the drain flag flips is neither lost nor
// double-executed, while new arrivals stop queueing immediately.
func TestDrainDuringQueuedAdmission(t *testing.T) {
	cfg := resilienceConfig()
	cfg.MaxConcurrent, cfg.QueueDepth = 1, 4
	s, _ := newTestServer(t, cfg)
	if err := fault.Configure("server.sparql.exec=delay:600ms"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()

	qSlow := `SELECT ?s ?m WHERE { ?s <` + datagen.ExampleNS + `manufacturer> ?m }`
	qQueued := `SELECT ?s ?p WHERE { ?s <` + datagen.ExampleNS + `price> ?p }`
	qLate := `SELECT ?s ?d WHERE { ?s <` + datagen.ExampleNS + `releaseDate> ?d }`

	hits0 := fault.Hits("server.sparql.exec")
	var wg sync.WaitGroup
	codes := make([]int, 2)
	launch := func(i int, q string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i], _, _, _ = doSparql(s, q)
		}()
	}
	launch(0, qSlow)
	waitUntil(t, "slot occupied", func() bool { return s.gate.Inflight() == 1 })
	launch(1, qQueued)
	waitUntil(t, "queue occupied", func() bool { return s.gate.Waiting() == 1 })

	s.SetDraining(true)
	defer s.SetDraining(false)
	if !s.Draining() {
		t.Fatal("drain flag not set")
	}

	// New arrival while draining: rejected rather than queued.
	code, _, _, body := doSparql(s, qLate)
	var shed map[string]string
	json.Unmarshal(body, &shed)
	if code != http.StatusServiceUnavailable || shed["reason"] != "draining" {
		t.Errorf("arrival during drain = %d reason %q, want 503 draining", code, shed["reason"])
	}

	// The in-flight and the already-queued request both complete normally…
	wg.Wait()
	if codes[0] != http.StatusOK || codes[1] != http.StatusOK {
		t.Errorf("drained requests = %v, want both 200", codes)
	}
	// …and each executed exactly once.
	if d := fault.Hits("server.sparql.exec") - hits0; d != 2 {
		t.Errorf("engine executions across drain = %d, want exactly 2", d)
	}
}

// TestCacheKeyConstantSafety is the satellite regression: queries sharing a
// structural fingerprint but differing in a constant must never share a
// cache entry.
func TestCacheKeyConstantSafety(t *testing.T) {
	s, _ := newTestServer(t, resilienceConfig())

	// Same shape, different literal constant: the second request must not be
	// served the first one's answer.
	qA := `SELECT ?s WHERE { ?s <` + datagen.ExampleNS + `manufacturer> "ConstA" }`
	qB := `SELECT ?s WHERE { ?s <` + datagen.ExampleNS + `manufacturer> "ConstB" }`
	pa, err := sparql.Parse(qA)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := sparql.Parse(qB)
	if err != nil {
		t.Fatal(err)
	}
	if sparql.Fingerprint(pa) != sparql.Fingerprint(pb) {
		t.Fatalf("test premise broken: constants should not change the fingerprint")
	}
	if code, xc, _, _ := doSparql(s, qA); code != http.StatusOK || xc != "miss" {
		t.Fatalf("qA = %d %q", code, xc)
	}
	if code, xc, _, _ := doSparql(s, qB); code != http.StatusOK || xc != "miss" {
		t.Errorf("qB after qA = %d X-Cache=%q: same-fingerprint constants shared an entry", code, xc)
	}
	a, okA := s.answers.Get(resilience.Key{Text: qA}, s.graph.Version())
	b, okB := s.answers.Get(resilience.Key{Text: qB}, s.graph.Version())
	if !okA || !okB || a == b {
		t.Errorf("entries of qA (%v) and qB (%v) are not two entries under their own texts", okA, okB)
	}

	// Different LIMIT constants: distinct entries with distinct bodies, each
	// independently hittable.
	q1 := laptopQuery() + ` LIMIT 1`
	q2 := laptopQuery() + ` LIMIT 2`
	_, _, _, body1 := doSparql(s, q1)
	_, _, _, body2 := doSparql(s, q2)
	if string(body1) == string(body2) {
		t.Error("LIMIT 1 and LIMIT 2 returned the same body")
	}
	if _, xc, _, again1 := doSparql(s, q1); xc != "hit" || string(again1) != string(body1) {
		t.Errorf("q1 re-request = %q, want hit with original body", xc)
	}
	if _, xc, _, again2 := doSparql(s, q2); xc != "hit" || string(again2) != string(body2) {
		t.Errorf("q2 re-request = %q, want hit with original body", xc)
	}
}

// parses counts the queries the engine has parsed, from the parse phase
// histogram /metrics exposes.
func parses() uint64 {
	return obs.Default.Histogram("rdfa_sparql_query_phase_seconds", nil, "phase", "parse").Count()
}

// TestHitsRunNoParser: a repeated SELECT or ASK, and a max-stale request
// after an update, are answered from the cache before any parse, and the
// hit's record still carries the query, its shape and fingerprint and the
// request's ids.
func TestHitsRunNoParser(t *testing.T) {
	s, _ := newTestServer(t, resilienceConfig())
	ask := `ASK { ?s a <` + datagen.ExampleNS + `Laptop> }`
	for i, q := range []string{laptopQuery(), ask} {
		missID, hitID := fmt.Sprint("miss-", i), fmt.Sprint("hit-", i)
		miss := doSparqlTraced(s, q, map[string]string{"X-Request-Id": missID})
		p0 := parses()
		hit := doSparqlTraced(s, q, map[string]string{"X-Request-Id": hitID})
		if d := parses() - p0; d != 0 {
			t.Errorf("%s: a hit parsed %d times", q, d)
		}
		if hit.Header().Get("X-Cache") != "hit" || hit.Body.String() != miss.Body.String() {
			t.Fatalf("%s: repeat = X-Cache %q, want a hit with the miss's body", q, hit.Header().Get("X-Cache"))
		}
		byID := map[string]obs.QueryRecord{}
		for _, e := range s.oplog.Snapshot().Recent {
			byID[e.RequestID] = e
		}
		m, h := byID[missID], byID[hitID]
		if h.Kind != "sparql" || h.Query != q || h.Cache != "hit" || h.Shape == "" ||
			h.Shape != m.Shape || h.FingerprintID != m.FingerprintID || h.TraceID != m.TraceID {
			t.Errorf("%s: hit record %+v, miss record %+v", q, h, m)
		}
	}

	q := laptopQuery() + " LIMIT 3"
	before := doSparqlTraced(s, q, nil).Body.String()
	if code := doUpdate(s, `INSERT DATA { <`+datagen.ExampleNS+`noParse> a <`+datagen.ExampleNS+`Laptop> }`); code != http.StatusOK {
		t.Fatalf("update = %d", code)
	}
	p0 := parses()
	stale := sparqlWith(s, q, "max-stale")
	if d := parses() - p0; d != 0 {
		t.Errorf("a stale hit parsed %d times", d)
	}
	if stale.Header().Get("X-Cache") != "stale" || stale.Body.String() != before {
		t.Errorf("max-stale after an update = X-Cache %q, want stale with the earlier body", stale.Header().Get("X-Cache"))
	}
}

// TestCSVBypassesAWarmCache: a SELECT whose answer is cached, asked for as
// CSV, still executes and answers CSV, marked bypass.
func TestCSVBypassesAWarmCache(t *testing.T) {
	s, _ := newTestServer(t, resilienceConfig())
	q := laptopQuery()
	doSparql(s, q)
	if _, xc, _, _ := doSparql(s, q); xc != "hit" {
		t.Fatalf("warm read = X-Cache %q, want hit", xc)
	}
	rec := doSparqlTraced(s, q, map[string]string{"Accept": "text/csv"})
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "bypass" ||
		rec.Header().Get("Content-Type") != "text/csv" || !strings.HasPrefix(rec.Body.String(), "s\n") {
		t.Errorf("CSV read of a cached SELECT = %d X-Cache %q %q: %.40q",
			rec.Code, rec.Header().Get("X-Cache"), rec.Header().Get("Content-Type"), rec.Body.String())
	}
}

// TestMalformedQueryIsNeverCached: a query that does not parse answers 400
// on every send and leaves nothing in the cache.
func TestMalformedQueryIsNeverCached(t *testing.T) {
	s, _ := newTestServer(t, resilienceConfig())
	const bad = `SELECT ?s WHERE { ?s ?p`
	for i := 0; i < 2; i++ {
		if code, xc, _, body := doSparql(s, bad); code != http.StatusBadRequest || xc != "" {
			t.Errorf("malformed query, send %d = %d X-Cache %q: %s", i, code, xc, body)
		}
	}
	if n := s.answers.Entries(); n != 0 {
		t.Errorf("%d cache entries after two malformed queries", n)
	}
}

// TestAnswerBodyExactSize is the double-buffering regression: the serializer
// produces a SELECT body once, at its final size, and that slice is the one
// the cache keeps — so after N stores the cache's byte count is the sum of
// the body lengths (plus the per-entry constant), with no hidden capacity
// behind it.
func TestAnswerBodyExactSize(t *testing.T) {
	s, _ := newTestServer(t, resilienceConfig())
	var want int64
	const contentType = "application/sparql-results+json"
	for n := 1; n <= 6; n++ {
		q := laptopQuery() + " LIMIT " + strconv.Itoa(n)
		code, xc, _, body := doSparql(s, q)
		if code != http.StatusOK || xc != "miss" {
			t.Fatalf("LIMIT %d = %d %q, want 200 miss", n, code, xc)
		}
		ans, ok := s.answers.Get(resilience.Key{Text: q}, s.graph.Version())
		if !ok {
			t.Fatalf("LIMIT %d: answer not cached", n)
		}
		if string(ans.Body) != string(body) {
			t.Errorf("LIMIT %d: cached body differs from the served one", n)
		}
		if cap(ans.Body) != len(ans.Body) {
			t.Errorf("LIMIT %d: cached body holds %d bytes of capacity for %d of content", n, cap(ans.Body), len(ans.Body))
		}
		want += int64(len(body) + len(contentType) + len(q))
	}
	if got := s.answers.Bytes() - int64(s.answers.Entries())*256; got != want {
		t.Errorf("cache accounts %d bytes beyond the per-entry constant, bodies+keys sum to %d", got, want)
	}
}

// TestRunBodyExactSize is TestAnswerBodyExactSize for runs: a run's body is
// rendered once, at the size a counting pass of its writer took, and that
// slice is the one the cache keeps; an entry accounts for its body, its
// frame's table and its key, with no hidden capacity behind them. Runs once
// grew their body in a doubling buffer: a 3 000-row frame held ≈0.56 MB of
// content in a 1 MB slice.
func TestRunBodyExactSize(t *testing.T) {
	s, _ := newTestServer(t, resilienceConfig())
	var want int64
	for _, local := range []string{"manufacturer", "releaseDate", "USBPorts", "hardDrive"} {
		laptopsBy(t, s, local, local)
		code, xc, _, body := doRun(s, local)
		if code != http.StatusOK || xc != "miss" {
			t.Fatalf("%s: run = %d %q, want 200 miss", local, code, xc)
		}
		s.mu.Lock()
		sess := s.sessions[local].sess
		run, err := sess.PrepareRun()
		frame := sess.Answer()
		s.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		key := resilience.Key{Namespace: "analytics", Text: run.Key}
		ans, ok := s.answers.GetFresh(key, s.graph)
		if !ok || ans.Frame != frame {
			t.Fatalf("%s: answer cached %v, the session's frame is the entry's %v", local, ok, ok && ans.Frame == frame)
		}
		if string(ans.Body) != string(body) {
			t.Errorf("%s: cached body differs from the served one", local)
		}
		if cap(ans.Body) != len(ans.Body) {
			t.Errorf("%s: cached body holds %d bytes of capacity for %d of content", local, cap(ans.Body), len(ans.Body))
		}
		want += int64(len(body)+len(ans.ContentType)+len(key.Namespace)+len(key.Text)) + frame.Table.Bytes()
	}
	if got := s.answers.Bytes() - int64(s.answers.Entries())*256; got != want {
		t.Errorf("cache accounts %d bytes beyond the per-entry constant, bodies+tables+keys sum to %d", got, want)
	}
}

// TestMutationInvalidatesAnswerCache checks graph-version keying: an update
// makes every prior entry unreachable for fresh lookups, and the re-executed
// answer reflects the mutation.
func TestMutationInvalidatesAnswerCache(t *testing.T) {
	s, ts := newTestServer(t, resilienceConfig())
	q := `SELECT (COUNT(?s) AS ?n) WHERE { ?s a <` + datagen.ExampleNS + `Laptop> }`

	_, _, _, before := doSparql(s, q)
	if _, xc, _, _ := doSparql(s, q); xc != "hit" {
		t.Fatalf("warm lookup = %q, want hit", xc)
	}
	resp, err := http.PostForm(ts.URL+"/sparql", url.Values{
		"update": {`PREFIX ex: <` + datagen.ExampleNS + `> INSERT DATA { ex:freshLaptop a ex:Laptop . }`},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	code, xc, _, after := doSparql(s, q)
	if code != http.StatusOK || xc != "miss" {
		t.Fatalf("post-update lookup = %d %q, want 200 miss", code, xc)
	}
	if string(after) == string(before) {
		t.Error("post-update answer identical to pre-update answer")
	}
	if _, xc, _, _ := doSparql(s, q); xc != "hit" {
		t.Errorf("refilled entry not hittable: %q", xc)
	}
}

// TestAbortsDoNotShedOtherQueries: timeouts of one query are that query's
// own outcome. Four timeouts of two constants of one fingerprint leave a
// third constant of the same fingerprint, which never ran, to answer 200 —
// nothing keyed on the shape refuses it.
func TestAbortsDoNotShedOtherQueries(t *testing.T) {
	cfg := resilienceConfig()
	cfg.QueryTimeout = 50 * time.Millisecond
	s, _ := newTestServer(t, cfg)
	if err := fault.Configure("server.sparql.exec=delay:400ms"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()

	q := func(m string) string {
		return `SELECT ?s WHERE { ?s <` + datagen.ExampleNS + `manufacturer> "` + m + `" }`
	}
	for i, m := range []string{"t1", "t2", "t1", "t2"} {
		if code, _, _, body := doSparql(s, q(m)); code != http.StatusGatewayTimeout {
			t.Fatalf("abort %d (%s) = %d %s, want 504", i, m, code, body)
		}
	}
	fault.Reset()
	if code, xc, _, body := doSparql(s, q("t3")); code != http.StatusOK || xc != "miss" {
		t.Errorf("same-fingerprint query after aborts = %d X-Cache %q %s, want 200 miss", code, xc, body)
	}
}

// TestResilienceDifferential is the satellite differential oracle: over the
// whole SELECT/ASK conformance corpus, cache on and off — and cold vs warm
// cache — return byte-identical /sparql responses.
func TestResilienceDifferential(t *testing.T) {
	cases, err := conformance.LoadCases(filepath.Join("..", "conformance", "testdata"))
	if err != nil {
		t.Fatal(err)
	}
	configs := []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{}},
		{"cache", Config{CacheBytes: 1 << 20}},
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
			// Twice: the second request exercises the warm path (a fresh
			// cache hit on the caching configs).
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
	t.Logf("differential oracle over %d corpus cases × %d configs × 2 passes", ran, len(configs))
}

// TestCachedHitObservability pins the satellite requirement that cache hits
// stay fully observable: X-Request-ID is stamped, the per-endpoint counter
// moves, and the workload profiler sees the serve.
func TestCachedHitObservability(t *testing.T) {
	s, ts := newTestServer(t, resilienceConfig())
	q := laptopQuery()
	doSparql(s, q) // fill

	req, _ := http.NewRequest("GET", ts.URL+"/sparql?query="+url.QueryEscape(q), nil)
	req.Header.Set("X-Request-ID", "cachehit-corr-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("X-Cache = %q, want hit", resp.Header.Get("X-Cache"))
	}
	if resp.Header.Get("X-Request-ID") != "cachehit-corr-1" {
		t.Errorf("cache hit dropped X-Request-ID: %q", resp.Header.Get("X-Request-ID"))
	}

	// The workload profiler counted both the miss and the hit.
	code, body := getStatus(t, ts.URL+"/api/workload")
	if code != http.StatusOK {
		t.Fatalf("workload = %d", code)
	}
	var snap obs.WorkloadSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Total < 2 {
		t.Errorf("workload saw %d serves, want >= 2 (miss + cached hit)", snap.Total)
	}
}

// TestDashboardResilienceCard checks the dashboard renders the overload
// card with live numbers.
func TestDashboardResilienceCard(t *testing.T) {
	s, ts := newTestServer(t, resilienceConfig())
	doSparql(s, laptopQuery())
	doSparql(s, laptopQuery())
	code, body := getStatus(t, ts.URL+"/debug/dashboard")
	if code != http.StatusOK {
		t.Fatalf("dashboard = %d", code)
	}
	for _, want := range []string{"Overload resilience", "answer-cache served", "serving mode"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
}

// cachedReadAllocBudget is what one warmed GET /sparql hit may allocate
// through ServeHTTP, httptest's request and recorder included. Measured
// with go1.24 on linux/amd64: 25 (16 of them in httptest's request and
// recorder; 27 under -race). It measured 35 while the middleware wrote both IDs onto the
// request's headers for handlers to read back, every header value was a
// slice of its own, the request ID went through hex.EncodeToString and the
// handler built the whole url.Values for its query parameter; 96 when every
// hit was parsed and fingerprinted and the middleware's header keys
// canonicalized. The budget is the measurement plus a margin of 5.
const cachedReadAllocBudget = 30

// cachedRead returns one GET /sparql of laptopQuery on a fresh request and
// recorder, through the full middleware stack of a server already holding
// its answer.
func cachedRead(tb testing.TB) func() *httptest.ResponseRecorder {
	s, _ := newTestServer(tb, resilienceConfig())
	target := "/sparql?query=" + url.QueryEscape(laptopQuery())
	read := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		return rec
	}
	read()
	if rec := read(); rec.Header().Get("X-Cache") != "hit" {
		tb.Fatalf("warmed read = %d X-Cache %q, want a hit", rec.Code, rec.Header().Get("X-Cache"))
	}
	return read
}

// TestCachedReadAllocs holds a hit to its allocation budget: a parse, a
// fingerprint or a header canonicalization back on the hit path breaks it.
func TestCachedReadAllocs(t *testing.T) {
	read := cachedRead(t)
	if n := testing.AllocsPerRun(50, func() { read() }); n > cachedReadAllocBudget {
		t.Errorf("a cached read allocates %v times, budget %d", n, cachedReadAllocBudget)
	}
}

// repeatedMissAllocBudget is what one GET /sparql of the chain/usb-1 shape
// may allocate through ServeHTTP when the answer cache is off, so the read
// is a miss, and the shape already ran. Measured with go1.24 on
// linux/amd64: 179 (189 under -race). It measured 226 while the operator
// profile allocated its nodes, children lists and labels one by one as the
// query ran, the misestimate table took a sorted slice of rendered rows, the
// IDs reached handlers through request headers and two context values, and
// singleflight armed a timer of its own; 378 before that, in a layout this
// comment kept after it changed. When the planner kept an execution-feedback
// store, the same read measured 699: the second run of a shape copied the
// shape's observed cardinalities, priced every step from them and folded its
// own back in. The budget is the measurement plus 10 %.
const repeatedMissAllocBudget = 197

// repeatedMiss returns one GET /sparql of sparql-cold's chain/usb-1 shape
// over 500 generated laptops, on a fresh request and recorder, through a
// server with no answer cache and no trace retention whose engine has run
// the shape before.
func repeatedMiss(tb testing.TB) func() *httptest.ResponseRecorder {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 500, Companies: 16, Seed: 1})
	s := NewWithConfig(g, datagen.ExampleNS, Config{TraceRetention: obs.TraceStoreConfig{Disabled: true}})
	tb.Cleanup(s.Close)
	target := "/sparql?query=" + url.QueryEscape(`PREFIX ex: <`+datagen.ExampleNS+`>
SELECT DISTINCT ?cont ?c WHERE { ?l ex:USBPorts 1 ; ex:hardDrive ?h . ?h ex:manufacturer ?m . ?m ex:origin ?c . ?c ex:locatedAt ?cont }`)
	read := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		return rec
	}
	if rec := read(); rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" || !strings.Contains(rec.Body.String(), `"cont"`) {
		tb.Fatalf("first read = %d X-Cache %q: %.200s", rec.Code, rec.Header().Get("X-Cache"), rec.Body)
	}
	return read
}

// TestRepeatedMissAllocs holds a re-run of a shape to its allocation budget:
// a planner that remembers earlier executions, or anything else that makes a
// shape's second run costlier than its first, breaks it.
func TestRepeatedMissAllocs(t *testing.T) {
	read := repeatedMiss(t)
	if n := testing.AllocsPerRun(20, func() { read() }); n > repeatedMissAllocBudget {
		t.Errorf("a repeated miss allocates %v times, budget %d", n, repeatedMissAllocBudget)
	}
}

// The run budgets: what one POST /api/run of a session that grouped 500
// generated laptops by releaseDate and counted them (a 415-row frame) may
// allocate through ServeHTTP, request and recorder included, the recorder
// dropping the body. A miss is measured on a server with no answer cache, so
// every run executes and streams its frame; a hit on one whose cache holds
// it. Measured with go1.24 on linux/amd64: a miss 255 allocations and
// ≈330 KB, a hit 47 and ≈8.8 KB. While a run decoded its table into terms
// and rendered its body into a doubling buffer, a miss measured 255 and
// ≈620 KB, a hit 47 and ≈8.8 KB: the decode alone is ≈56 KB. The allocation
// budgets are the measurement plus 10 %; the bytes budget sits below the
// decode's. Under the race detector, whose sync.Pool drops a share of the
// engine's row blocks, a miss is not held to them (≈680 allocations,
// ≈440 KB).
const (
	runMissAllocBudget = 280
	runMissBytesBudget = 380 << 10
	runHitAllocBudget  = 52
)

// TestRunAllocBudget holds a run miss and a run hit to their budgets: the
// frame decoded into terms again, or its body rendered through a buffer of
// its own, breaks the miss's bytes.
func TestRunAllocBudget(t *testing.T) {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 500, Companies: 16, Seed: 1})
	for _, c := range []struct {
		xc         string
		cacheBytes int64
		allocs     float64
	}{{"miss", 0, runMissAllocBudget}, {"hit", 1 << 20, runHitAllocBudget}} {
		s := NewWithConfig(g, datagen.ExampleNS, Config{CacheBytes: c.cacheBytes, TraceRetention: obs.TraceStoreConfig{Disabled: true}})
		defer s.Close()
		laptopsBy(t, s, "a", "releaseDate")
		run := func() *httptest.ResponseRecorder {
			req := httptest.NewRequest("POST", "/api/run", nil)
			req.Header.Set("X-Session", "a")
			rec := httptest.NewRecorder()
			rec.Body = nil // the recorder drops what is written
			s.ServeHTTP(rec, req)
			return rec
		}
		run()
		if rec := run(); rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != c.xc {
			t.Fatalf("run = %d X-Cache %q, want 200 %s", rec.Code, rec.Header().Get("X-Cache"), c.xc)
		}
		if c.xc == "miss" && raceDetector {
			continue
		}
		if n := testing.AllocsPerRun(20, func() { run() }); n > c.allocs {
			t.Errorf("a run %s allocates %v times, budget %v", c.xc, n, c.allocs)
		}
		if c.xc != "miss" {
			continue
		}
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > runMissBytesBudget {
			t.Errorf("a run miss allocates %d bytes, budget %d", perRun, runMissBytesBudget)
		}
	}
}

// BenchmarkCachedRead times a warmed GET /sparql hit through ServeHTTP.
func BenchmarkCachedRead(b *testing.B) {
	read := cachedRead(b)
	b.ReportAllocs()
	for b.Loop() {
		read()
	}
}

// fillToBudget stores one answer that takes the whole of s's answer cache,
// so any other answer is a first sight that would have to evict.
func fillToBudget(t *testing.T, s *Server, budget int) {
	t.Helper()
	filler := resilience.Key{Text: "filler"}
	const contentType = "application/sparql-results+json"
	body := make([]byte, budget-256-len(filler.Text)-len(contentType))
	if !s.answers.Put(filler, &resilience.Answer{Body: body, ContentType: contentType, Reads: rdf.ReadSet{All: true}}) {
		t.Fatal("the filler does not fit an empty cache")
	}
	if s.answers.Bytes() != int64(budget) {
		t.Fatalf("the filler takes %d bytes of %d", s.answers.Bytes(), budget)
	}
}

// TestRefusedAnswerStreams: on a cache filled to its budget, a herd of
// identical first-sight SELECTs held in the engine by a fault delay runs
// once, and every waiter gets the same body, streamed from the answer's
// table under a Content-Length that is its length; nothing is stored and
// nothing evicted. The second sight is stored, and the third is a hit.
func TestRefusedAnswerStreams(t *testing.T) {
	cfg := resilienceConfig()
	s, _ := newTestServer(t, cfg)
	fillToBudget(t, s, int(cfg.CacheBytes))
	if err := fault.Configure("server.sparql.exec=delay:400ms"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()

	fills0, evictions0 := cacheFills.Value(), s.answers.Evictions()
	const herd = 16
	q := laptopQuery()
	results := make([]*httptest.ResponseRecorder, herd)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i] = doSparqlTraced(s, q, nil)
		}(i)
	}
	close(start)
	wg.Wait()

	counts := map[string]int{}
	body := results[0].Body.String()
	for i, rec := range results {
		if rec.Code != http.StatusOK || rec.Body.String() != body {
			t.Fatalf("request %d = %d, body differs from request 0's: %.200s", i, rec.Code, rec.Body)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Errorf("request %d: Content-Length %q for a body of %d bytes", i, cl, len(body))
		}
		counts[rec.Header().Get("X-Cache")]++
	}
	if counts["miss"] != 1 || counts["collapsed"] != herd-1 {
		t.Errorf("X-Cache split = %v, want 1 miss + %d collapsed", counts, herd-1)
	}
	if got := fault.Hits("server.sparql.exec"); got != 1 {
		t.Errorf("engine executed %d times for the herd, want 1", got)
	}
	key := resilience.Key{Text: q}
	if _, ok := s.answers.GetFresh(key, s.graph); ok || cacheFills.Value() != fills0 || s.answers.Evictions() != evictions0 {
		t.Errorf("a first sight on a full cache: stored %v, %d fills, %d evictions", ok, cacheFills.Value()-fills0, s.answers.Evictions()-evictions0)
	}
	if res, err := sparql.ParseJSONResults(strings.NewReader(body)); err != nil || res.Len() == 0 {
		t.Fatalf("streamed body does not parse: %v", err)
	}

	fault.Reset()
	second := doSparqlTraced(s, q, nil)
	if second.Header().Get("X-Cache") != "miss" || second.Body.String() != body || second.Header().Get("Content-Length") != "" {
		t.Fatalf("second sight = X-Cache %q, Content-Length %q, same body %v; want a stored miss", second.Header().Get("X-Cache"), second.Header().Get("Content-Length"), second.Body.String() == body)
	}
	if _, ok := s.answers.GetFresh(key, s.graph); !ok || cacheFills.Value() != fills0+1 || s.answers.Evictions() != evictions0+1 {
		t.Errorf("second sight: stored %v, %d fills, %d evictions; want stored, 1, 1 (the filler)", ok, cacheFills.Value()-fills0, s.answers.Evictions()-evictions0)
	}
	if _, xc, _, hit := doSparql(s, q); xc != "hit" || string(hit) != body {
		t.Errorf("third sight = X-Cache %q, want a hit with the same body", xc)
	}
}

// TestRefusedRunStreams is TestRefusedAnswerStreams for runs: on a cache
// filled to its budget, a first-sight run streams its body under a
// Content-Length that is its length, and nothing is stored; the session
// adopts the frame all the same, so its chart and CSV export answer. The
// second sight is stored, and another session's run is a hit on it.
func TestRefusedRunStreams(t *testing.T) {
	cfg := resilienceConfig()
	s, _ := newTestServer(t, cfg)
	fillToBudget(t, s, int(cfg.CacheBytes))
	laptopsBy(t, s, "a", "manufacturer")
	laptopsBy(t, s, "b", "manufacturer")

	fills0 := cacheFills.Value()
	first := inSession(s, "a", "POST", "/api/run", "")
	body := first.Body.String()
	if first.Code != http.StatusOK || first.Header().Get("X-Cache") != "miss" || first.Header().Get("Content-Length") != strconv.Itoa(len(body)) {
		t.Fatalf("first sight = %d X-Cache %q Content-Length %q for %d bytes", first.Code, first.Header().Get("X-Cache"), first.Header().Get("Content-Length"), len(body))
	}
	if s.answers.Entries() != 1 || cacheFills.Value() != fills0 {
		t.Errorf("a first sight on a full cache: %d entries, %d fills", s.answers.Entries(), cacheFills.Value()-fills0)
	}
	var frame struct{ Rows [][]any }
	if err := json.Unmarshal([]byte(body), &frame); err != nil || len(frame.Rows) == 0 {
		t.Fatalf("streamed body does not parse: %v", err)
	}
	chart := inSession(s, "a", "GET", "/api/chart?type=bar", "")
	csv := inSession(s, "a", "GET", "/api/answer.csv", "")
	if chart.Code != http.StatusOK || csv.Code != http.StatusOK || strings.Count(csv.Body.String(), "\n") != len(frame.Rows)+1 {
		t.Errorf("after a streamed run: chart %d, csv %d %q", chart.Code, csv.Code, csv.Body)
	}

	second := inSession(s, "a", "POST", "/api/run", "")
	if second.Header().Get("X-Cache") != "miss" || second.Body.String() != body || second.Header().Get("Content-Length") != "" {
		t.Fatalf("second sight = X-Cache %q, Content-Length %q, same body %v; want a stored miss", second.Header().Get("X-Cache"), second.Header().Get("Content-Length"), second.Body.String() == body)
	}
	if cacheFills.Value() != fills0+1 {
		t.Errorf("second sight: %d fills, want 1", cacheFills.Value()-fills0)
	}
	if code, xc, _, hit := doRun(s, "b"); code != http.StatusOK || xc != "hit" || string(hit) != body {
		t.Errorf("another session's run = %d X-Cache %q, want a hit with the same body", code, xc)
	}
}

// coldRead returns one GET /sparql of every triple of 800 generated laptops
// (≈1.25 MB of JSON) on a fresh request and a recorder that drops the body,
// through a server whose answer cache is smaller than the answer, so every
// read is a refused miss and the body its table streamed.
func coldRead(tb testing.TB) (read func(), bodyLen int) {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 800, Companies: 16, Seed: 1})
	s := NewWithConfig(g, datagen.ExampleNS, Config{CacheBytes: 256 << 10, TraceRetention: obs.TraceStoreConfig{Disabled: true}})
	tb.Cleanup(s.Close)
	target := "/sparql?query=" + url.QueryEscape(`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
	if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" || rec.Header().Get("Content-Length") != strconv.Itoa(rec.Body.Len()) {
		tb.Fatalf("first read = %d X-Cache %q Content-Length %q for %d bytes", rec.Code, rec.Header().Get("X-Cache"), rec.Header().Get("Content-Length"), rec.Body.Len())
	}
	if rec.Body.Len() < 1<<20 || s.answers.Entries() != 0 {
		tb.Fatalf("the answer is %d bytes, %d entries cached; want ≥ 1 MB refused", rec.Body.Len(), s.answers.Entries())
	}
	return func() {
		rec := httptest.NewRecorder()
		rec.Body = nil // the recorder drops what is written
		s.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
	}, rec.Body.Len()
}

// coldReadBytes is what one refused miss of coldRead's 1.25 MB answer may
// allocate through ServeHTTP, recorder and request included. Measured with
// go1.24 on linux/amd64: 0.19–0.22 MB — the engine, the table and its sort,
// and a pooled chunk when a collection has emptied the pool; 0.27–0.28 MB
// under -race. Rendering the body into one slice before the cache refuses
// it adds its 1.25 MB. The budget sits between, at a third of the body.
const coldReadBytes = 400 << 10

// TestColdReadAllocatesNoBody holds a refused miss to its bytes budget: a
// body-sized buffer anywhere on the streamed path — the answer rendered
// before the cache refuses it, or a stream framed through a buffer — breaks
// it.
func TestColdReadAllocatesNoBody(t *testing.T) {
	read, bodyLen := coldRead(t)
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	perRead := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("a refused miss of a %d-byte answer allocates %d bytes", bodyLen, perRead)
	if perRead > coldReadBytes {
		t.Errorf("a refused miss of a %d-byte answer allocates %d bytes, budget %d", bodyLen, perRead, coldReadBytes)
	}
}

// TestColdReadOnTheWire: a streamed answer goes out framed by its length,
// not chunked, over a real connection.
func TestColdReadOnTheWire(t *testing.T) {
	cfg := resilienceConfig()
	cfg.CacheBytes = 4 << 10 // smaller than the answer: refused at every sight
	s, ts := newTestServer(t, cfg)
	const q = `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`
	resp, err := http.Get(ts.URL + "/sparql?query=" + url.QueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 || len(body) <= 4<<10 {
		t.Errorf("Content-Length %d, Transfer-Encoding %v for a body of %d bytes", resp.ContentLength, resp.TransferEncoding, len(body))
	}
	if _, _, _, want := doSparql(s, q); string(want) != string(body) {
		t.Error("the wire body differs from the in-process one")
	}
}

// BenchmarkColdRead times a refused miss of coldRead's 1.25 MB answer through
// ServeHTTP: the engine, the sort, the size pass and the streamed body.
func BenchmarkColdRead(b *testing.B) {
	read, _ := coldRead(b)
	b.ReportAllocs()
	for b.Loop() {
		read()
	}
}
