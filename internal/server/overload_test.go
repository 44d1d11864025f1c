package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/fault"
	"rdfanalytics/internal/rdf"
)

// doUpdate applies one SPARQL update through the full middleware stack
// in-process and returns the status.
func doUpdate(s *Server, update string) int {
	req := httptest.NewRequest("POST", "/sparql", strings.NewReader(url.Values{"update": {update}}.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec.Code
}

// TestOverloadCounts drives 18 concurrent clients through three rounds
// against a fault-slowed engine behind two execution slots and a four-deep
// queue. Per round, six clients send one query new to the cache (the
// first is already executing when the other five arrive), eight send one
// distinct shape each, two send a hot query, two sessions make the same
// analytic run, and single-triple INSERT DATA updates land while executions
// are in flight. The counts come from the responses and agree with the
// metrics: followers collapse onto a leader, every miss is one engine
// execution — a run's as much as a query's — the distinct shapes overflow
// the queue and are shed with the structured 503 + Retry-After, and nothing
// is served stale. Every 200 body is its query's answer at a graph version
// that was current at some point of the request's lifetime; the answers at
// every version come from replaying the same updates on a clone.
func TestOverloadCounts(t *testing.T) {
	const (
		rounds          = 3
		identical       = 6
		updatesPerRound = 3
		updates         = rounds * updatesPerRound
	)
	ns := datagen.ExampleNS
	identicalQuery := func(round int) string {
		return fmt.Sprintf(`SELECT ?s WHERE { ?s a <%sLaptop> } OFFSET %d`, ns, round)
	}
	hotQuery := `SELECT (COUNT(?s) AS ?n) WHERE { ?s a <` + ns + `Laptop> }`
	var distinct []string
	distinctPreds := []string{"manufacturer", "price", "origin", "USBPorts", "releaseDate", "hardDrive", "founder", "size"}
	for _, p := range distinctPreds {
		distinct = append(distinct, `SELECT ?s ?o WHERE { ?s <`+ns+p+`> ?o }`)
	}
	update := func(k int) string {
		text := fmt.Sprintf(`INSERT DATA { <%soverload%d> a <%sLaptop>`, ns, k, ns)
		for _, p := range distinctPreds {
			text += fmt.Sprintf(` ; <%s%s> %d`, ns, p, k)
		}
		return text + ` }`
	}
	queries := append([]string{hotQuery}, distinct...)
	for r := 0; r < rounds; r++ {
		queries = append(queries, identicalQuery(r))
	}
	// A client named run-* is a session whose Σ click is laptops counted by
	// manufacturer; its "query" is POST /api/run.
	const run = "run"
	runners := []string{"run-a", "run-b"}
	do := func(s *Server, q string) (int, string, string, []byte) {
		if strings.HasPrefix(q, run) {
			return doRun(s, q)
		}
		return doSparql(s, q)
	}
	g := datagen.SmallProducts()
	rdf.Materialize(g)
	// answers[q][k] is q's body after the first k updates, from a server
	// over a clone that applies the same updates in the same order.
	ref := NewWithConfig(g.Clone(), ns, Config{})
	defer ref.Close()
	laptopsBy(t, ref, run, "manufacturer")
	answers := map[string][]string{}
	for k := 0; k <= updates; k++ {
		if k > 0 {
			if code := doUpdate(ref, update(k)); code != http.StatusOK {
				t.Fatalf("reference update %d = %d", k, code)
			}
		}
		for _, q := range append(queries, run) {
			code, _, _, body := do(ref, q)
			if code != http.StatusOK {
				t.Fatalf("reference %q at %d = %d %s", q, k, code, body)
			}
			answers[q] = append(answers[q], string(body))
		}
	}
	for _, r := range runners {
		answers[r] = answers[run]
	}

	cfg := resilienceConfig()
	cfg.MaxConcurrent, cfg.QueueDepth = 2, 4
	s := NewWithConfig(g, ns, cfg)
	defer s.Close()
	for _, r := range runners {
		laptopsBy(t, s, r, "manufacturer")
	}
	// Cached answers for the hot and distinct queries, which every round's
	// updates outdate: a stale serve is always on offer, and must not be
	// taken.
	for _, q := range append([]string{hotQuery}, distinct...) {
		if code, xc, _, _ := doSparql(s, q); code != http.StatusOK || xc != "miss" {
			t.Fatalf("warm %q = %d %q", q, code, xc)
		}
	}
	if err := fault.Configure("server.sparql.exec=delay:100ms"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()

	// An update k is started before its request is sent and acknowledged
	// after its response: a request that reads acked = lo when it starts and
	// started = hi when it ends saw the graph only at versions lo..hi.
	var started, acked atomic.Int64
	applyUpdate := func() {
		k := int(started.Add(1))
		if code := doUpdate(s, update(k)); code != http.StatusOK {
			t.Errorf("update %d = %d", k, code)
		}
		acked.Add(1)
	}
	type response struct {
		query        string
		lo, hi       int
		code         int
		cache, retry string
		body         string
	}
	var mu sync.Mutex
	var responses []response
	send := func(q string) {
		lo := int(acked.Load())
		code, xc, retry, body := do(s, q)
		hi := int(started.Load())
		mu.Lock()
		responses = append(responses, response{q, lo, hi, code, xc, retry, string(body)})
		mu.Unlock()
	}

	hits0, collapsed0 := fault.Hits("server.sparql.exec"), cacheCollapsed.Value()
	rejected := func() (n uint64) {
		for _, reason := range shedReasons {
			n += admissionRejected(reason).Value()
		}
		return n
	}
	rejected0, stale0 := rejected(), cacheStale.Value()
	for r := 0; r < rounds; r++ {
		applyUpdate() // every cached answer is outdated now
		var clients sync.WaitGroup
		launch := func(q string, release <-chan struct{}) {
			clients.Add(1)
			go func() {
				defer clients.Done()
				<-release
				send(q)
			}()
		}
		// The round's identical query is executing before anyone joins it.
		execs := fault.Hits("server.sparql.exec")
		now := make(chan struct{})
		close(now)
		launch(identicalQuery(r), now)
		waitUntil(t, "leader executing", func() bool { return fault.Hits("server.sparql.exec") > execs })
		release := make(chan struct{})
		for i := 1; i < identical; i++ {
			launch(identicalQuery(r), release)
		}
		for _, q := range append(append(distinct, hotQuery, hotQuery), runners...) {
			launch(q, release)
		}
		close(release)
		// The rest of the round's updates land while executions are in
		// flight or queued.
		for u := 1; u < updatesPerRound; u++ {
			time.Sleep(40 * time.Millisecond)
			applyUpdate()
		}
		clients.Wait()
	}

	if len(responses) != rounds*18 {
		t.Fatalf("%d responses, want %d", len(responses), rounds*18)
	}
	byCache := map[string]int{}
	queueFull := 0
	for _, rsp := range responses {
		switch rsp.code {
		case http.StatusOK:
			byCache[rsp.cache]++
			matched := false
			for k := rsp.lo; k <= rsp.hi; k++ {
				if answers[rsp.query][k] == rsp.body {
					matched = true
				}
			}
			if !matched {
				t.Errorf("%q (X-Cache %s) answered with no version in %d..%d:\n%s", rsp.query, rsp.cache, rsp.lo, rsp.hi, rsp.body)
			}
		case http.StatusServiceUnavailable:
			var shed map[string]string
			if err := json.Unmarshal([]byte(rsp.body), &shed); err != nil {
				t.Errorf("shed body not JSON: %s", rsp.body)
			}
			if shed["reason"] != "queue_full" {
				t.Errorf("shed reason %q, want queue_full (%s)", shed["reason"], rsp.body)
			}
			queueFull++
			if rsp.retry == "" {
				t.Errorf("shed %q without Retry-After", rsp.query)
			}
		default:
			t.Errorf("%q = %d %s", rsp.query, rsp.code, rsp.body)
		}
	}
	t.Logf("X-Cache %v, %d shed queue_full, %d engine executions", byCache, queueFull, fault.Hits("server.sparql.exec")-hits0)

	if byCache["collapsed"] == 0 {
		t.Error("no follower collapsed onto an executing leader")
	}
	if d := cacheCollapsed.Value() - collapsed0; d != uint64(byCache["collapsed"]) {
		t.Errorf("rdfa_cache_collapsed_total moved %d for %d collapsed responses", d, byCache["collapsed"])
	}
	if d := fault.Hits("server.sparql.exec") - hits0; d != uint64(byCache["miss"]) {
		t.Errorf("%d engine executions for %d miss responses", d, byCache["miss"])
	}
	if d := rejected() - rejected0; queueFull == 0 || d != uint64(queueFull) {
		t.Errorf("%d queue_full responses, rdfa_admission_rejected_total moved %d; want equal and > 0", queueFull, d)
	}
	if byCache["stale"] != 0 || cacheStale.Value() != stale0 {
		t.Errorf("%d stale responses (counter +%d) to requests that never asked for one", byCache["stale"], cacheStale.Value()-stale0)
	}
}

// TestCollapseWithinOneVersion: a request that arrives after an update does
// not join an execution whose leader looked the answer up before it — that
// execution may have read the graph first — but runs its own.
func TestCollapseWithinOneVersion(t *testing.T) {
	s, _ := newTestServer(t, resilienceConfig())
	if err := fault.Configure("server.sparql.exec=delay:300ms"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()
	hits0 := fault.Hits("server.sparql.exec")
	caches := make([]string, 2)
	var wg sync.WaitGroup
	send := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, caches[i], _, _ = doSparql(s, laptopQuery())
		}()
	}
	send(0)
	waitUntil(t, "leader executing", func() bool { return fault.Hits("server.sparql.exec") == hits0+1 })
	if code := doUpdate(s, `INSERT DATA { <`+datagen.ExampleNS+`lateLaptop> a <`+datagen.ExampleNS+`Laptop> }`); code != http.StatusOK {
		t.Fatalf("update = %d", code)
	}
	send(1)
	wg.Wait()
	if caches[0] != "miss" || caches[1] != "miss" {
		t.Errorf("X-Cache before/after the update = %v, want two misses", caches)
	}
	if d := fault.Hits("server.sparql.exec") - hits0; d != 2 {
		t.Errorf("%d engine executions, want 2", d)
	}
}
