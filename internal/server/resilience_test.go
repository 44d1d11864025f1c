package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
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
		for _, e := range s.workload.Snapshot().Recent {
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
// through ServeHTTP, httptest's request and recorder included. Measured with
// go1.24 on linux/amd64: 35 (12 of them the request and recorder; 37 under
// -race). The parent layout, which parsed and fingerprinted every hit and
// canonicalized the middleware's header keys, measured 96. The budget is
// the measurement plus a margin of 5.
const cachedReadAllocBudget = 40

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
// linux/amd64: 378 (391–393 under -race). When the planner kept an
// execution-feedback store, the same read measured 699: the second run of a
// shape copied the shape's observed cardinalities, priced every step from
// them and folded its own back in. The budget is the measurement plus 10 %.
const repeatedMissAllocBudget = 416

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

// BenchmarkCachedRead times a warmed GET /sparql hit through ServeHTTP.
func BenchmarkCachedRead(b *testing.B) {
	read := cachedRead(b)
	b.ReportAllocs()
	for b.Loop() {
		read()
	}
}
