package server

import (
	"encoding/json"
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

// resilienceConfig is the baseline overload-resilience test config: cache,
// gate and breakers all armed.
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

// TestDegradedStaleServing drives a paging latency SLO (the chaos loop from
// the health tests), then checks the three degraded-mode behaviors: stale
// cache entries of an older graph version are served within the window,
// known-expensive uncached shapes are shed, and cheap unknown shapes still
// execute while capacity remains.
func TestDegradedStaleServing(t *testing.T) {
	cfg := resilienceConfig()
	cfg.SLO = chaosSLOConfig().SLO
	s, ts := newTestServer(t, cfg)

	// Prime the hot fingerprint (graph version v1).
	qHot := laptopQuery()
	code, xc, _, hotBody := doSparql(s, qHot)
	if code != http.StatusOK || xc != "miss" {
		t.Fatalf("prime = %d %q", code, xc)
	}

	// Teach the breaker that the "manufacturer = const" shape is expensive:
	// one 400ms execution sets its cost EWMA well above the 250ms shed cutoff.
	if err := fault.Configure("server.sparql.exec=delay:400ms"); err != nil {
		t.Fatal(err)
	}
	qExpensive := func(m string) string {
		return `SELECT ?s WHERE { ?s <` + datagen.ExampleNS + `manufacturer> "` + m + `" }`
	}
	if code, _, _, body := doSparql(s, qExpensive("alpha")); code != http.StatusOK {
		t.Fatalf("expensive prime = %d %s", code, body)
	}
	fault.Reset()

	// Mutate the graph: the hot entry is now one version stale.
	resp, err := http.PostForm(ts.URL+"/sparql", url.Values{
		"update": {`PREFIX ex: <` + datagen.ExampleNS + `> INSERT DATA { ex:staleProbe a ex:Laptop . }`},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update = %d", resp.StatusCode)
	}

	// Flip the latency SLO to page severity via the chaos fault site.
	if err := fault.Configure("server.handler.slow=delay:400ms"); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	s.sampler.Tick(t0)
	for i := 0; i < 8; i++ {
		req, _ := http.NewRequest("GET", ts.URL+"/api/state", nil)
		req.Header.Set("X-Fault", "slow")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	s.sampler.Tick(t0.Add(10 * time.Second))
	fault.Reset()
	if !s.Degraded() {
		t.Fatal("page alert did not flip degraded mode")
	}

	// (a) Stale entry served within the window, byte-identical to the primed
	// answer even though the graph has since changed.
	code, xc, _, body := doSparql(s, qHot)
	if code != http.StatusOK || xc != "stale" {
		t.Fatalf("degraded hot query = %d X-Cache=%q, want 200 stale", code, xc)
	}
	if string(body) != string(hotBody) {
		t.Error("stale serve does not match the cached answer")
	}

	// (b) Same expensive shape, different constant: uncached, learned EWMA
	// over the cutoff → shed.
	code, _, retryAfter, body := doSparql(s, qExpensive("beta"))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("expensive uncached shape while degraded = %d %s, want 503", code, body)
	}
	var shed map[string]string
	json.Unmarshal(body, &shed)
	if shed["reason"] != "degraded" || retryAfter == "" {
		t.Errorf("shed = reason %q Retry-After %q, want degraded + hint", shed["reason"], retryAfter)
	}

	// (c) A cheap never-seen shape still executes: degraded mode sheds by
	// learned cost, not indiscriminately, while slots are free.
	qCheap := `SELECT ?s ?u WHERE { ?s <` + datagen.ExampleNS + `USBPorts> ?u } LIMIT 1`
	if code, xc, _, body := doSparql(s, qCheap); code != http.StatusOK || xc != "miss" {
		t.Errorf("cheap unknown shape while degraded = %d %q %s, want 200 miss", code, xc, body)
	}
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
	if !s.Degraded() {
		t.Fatal("drain flag did not flip degraded mode")
	}

	// New arrival while draining: rejected rather than queued.
	code, _, _, body := doSparql(s, qLate)
	var shed map[string]string
	json.Unmarshal(body, &shed)
	if code != http.StatusServiceUnavailable || shed["reason"] != "degraded" {
		t.Errorf("arrival during drain = %d reason %q, want 503 degraded", code, shed["reason"])
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
		parsed, err := sparql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		key := resilience.CacheKey(sparql.FingerprintID(sparql.Fingerprint(parsed)), q)
		ans, ok := s.answers.Lookup(key, s.graph.Version())
		if !ok {
			t.Fatalf("LIMIT %d: answer not cached", n)
		}
		if string(ans.Body) != string(body) {
			t.Errorf("LIMIT %d: cached body differs from the served one", n)
		}
		if cap(ans.Body) != len(ans.Body) {
			t.Errorf("LIMIT %d: cached body holds %d bytes of capacity for %d of content", n, cap(ans.Body), len(ans.Body))
		}
		want += int64(len(body) + len(contentType) + len(key))
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

// TestBreakerOpensOverHTTP aborts the same fingerprint repeatedly via
// timeout injection and checks the circuit opens: subsequent requests for
// that shape are rejected up front with 503 + Retry-After.
func TestBreakerOpensOverHTTP(t *testing.T) {
	cfg := Config{
		CacheBytes:       1 << 20,
		QueryTimeout:     50 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour, // stay open for the whole test
	}
	s, _ := newTestServer(t, cfg)
	if err := fault.Configure("server.sparql.exec=delay:400ms"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()

	q := func(m string) string {
		return `SELECT ?s WHERE { ?s <` + datagen.ExampleNS + `manufacturer> "` + m + `" }`
	}
	rejected0 := breakerRejected.Value()
	for i, m := range []string{"t1", "t2"} {
		if code, _, _, _ := doSparql(s, q(m)); code == http.StatusOK {
			t.Fatalf("abort %d unexpectedly succeeded", i)
		}
	}
	pq, err := sparql.Parse(q("t3"))
	if err != nil {
		t.Fatal(err)
	}
	fpID := sparql.FingerprintID(sparql.Fingerprint(pq))
	if st := s.breakers.State(fpID); st != "open" {
		t.Fatalf("breaker state after %d aborts = %q, want open", 2, st)
	}

	code, _, retryAfter, body := doSparql(s, q("t3"))
	if code != http.StatusServiceUnavailable || retryAfter == "" {
		t.Fatalf("open-circuit request = %d Retry-After %q %s, want 503 + hint", code, retryAfter, body)
	}
	var shed map[string]string
	json.Unmarshal(body, &shed)
	if shed["reason"] != "breaker_open" {
		t.Errorf("reason = %q, want breaker_open", shed["reason"])
	}
	if d := breakerRejected.Value() - rejected0; d != 1 {
		t.Errorf("breaker rejections = %d, want 1", d)
	}
	// A different fingerprint is unaffected.
	fault.Reset()
	if code, _, _, _ := doSparql(s, laptopQuery()); code != http.StatusOK {
		t.Errorf("unrelated shape also rejected: %d", code)
	}
}

// TestResilienceDifferential is the satellite differential oracle: over the
// whole SELECT/ASK conformance corpus, every combination of {cache on/off} ×
// {singleflight on/off} — and cold vs warm cache — returns byte-identical
// /sparql responses.
func TestResilienceDifferential(t *testing.T) {
	cases, err := conformance.LoadCases(filepath.Join("..", "conformance", "testdata"))
	if err != nil {
		t.Fatal(err)
	}
	configs := []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{NoCollapse: true}},
		{"collapse", Config{}},
		{"cache", Config{CacheBytes: 1 << 20, NoCollapse: true}},
		{"cache+collapse", Config{CacheBytes: 1 << 20}},
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
