package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/fault"
	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/store"
)

// storeServer boots a server over a durable store bootstrapped with the
// small products dataset, returning both plus the data directory.
func storeServer(t *testing.T) (*httptest.Server, *store.Store, string) {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir, Sync: store.SyncBatch})
	if err != nil {
		t.Fatal(err)
	}
	g := datagen.SmallProducts()
	rdf.Materialize(g)
	if err := st.Bootstrap(g); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewWithConfig(st.Graph(), datagen.ExampleNS, Config{Store: st}))
	t.Cleanup(func() {
		ts.Close()
		st.Close()
	})
	return ts, st, dir
}

// TestUpdateDurableAck: an acknowledged SPARQL update is on disk — a fresh
// store opened on the same directory (while the server's own store is
// abandoned, as a crash would) sees it.
func TestUpdateDurableAck(t *testing.T) {
	ts, st, dir := storeServer(t)
	before := st.Stats().WALRecordsTotal
	resp, err := http.PostForm(ts.URL+"/sparql", url.Values{
		"update": {`PREFIX ex: <http://new/> INSERT DATA { ex:a ex:p ex:b . }`},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update: %d", resp.StatusCode)
	}
	if st.Stats().WALRecordsTotal != before+1 {
		t.Fatalf("WAL records %d → %d, want +1", before, st.Stats().WALRecordsTotal)
	}
	// Reopen the directory cold — no Close on the server's store first.
	st2, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	want := rdf.Triple{S: rdf.NewIRI("http://new/a"), P: rdf.NewIRI("http://new/p"), O: rdf.NewIRI("http://new/b")}
	if !st2.Graph().Has(want) {
		t.Fatal("acknowledged update missing after cold reopen")
	}
}

func TestCheckpointEndpoint(t *testing.T) {
	ts, st, _ := storeServer(t)
	resp, err := http.PostForm(ts.URL+"/sparql", url.Values{
		"update": {`PREFIX ex: <http://new/> INSERT DATA { ex:c ex:p ex:d . }`},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Stats().TailRecords == 0 {
		t.Fatal("setup: expected a tail record before checkpoint")
	}
	out := postJSON(t, ts.URL+"/api/checkpoint", map[string]any{})
	if out["tailRecords"].(float64) != 0 {
		t.Fatalf("checkpoint left a tail: %v", out)
	}
	if st.Stats().TailRecords != 0 {
		t.Fatal("tail not folded after /api/checkpoint")
	}
	// The endpoint 409s on a store-less server.
	plain := testServer(t)
	resp, err = http.Post(plain.URL+"/api/checkpoint", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("checkpoint without store: %d, want 409", resp.StatusCode)
	}
}

// TestStoreMetricsExported: the rdfa_store_* family shows up on /metrics
// with the store wired in.
func TestStoreMetricsExported(t *testing.T) {
	ts, _, _ := storeServer(t)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, name := range []string{
		"rdfa_store_wal_records_total",
		"rdfa_store_wal_bytes_total",
		"rdfa_store_checkpoints_total",
		"rdfa_store_segments",
		"rdfa_store_tail_records",
		"rdfa_store_epoch",
		"rdfa_store_last_checkpoint_seconds",
		"rdfa_store_replay_seconds",
		"rdfa_store_replay_records",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("metric %s missing from /metrics", name)
		}
	}
}

// TestSlowCheckpointsDoNotDegrade: the operator's checkpoint trigger is not
// user traffic. Eight slow checkpoints leave the server ready, and a query
// whose cached answer a write has since outdated is executed again, never
// answered stale.
func TestSlowCheckpointsDoNotDegrade(t *testing.T) {
	if err := fault.Configure("server.handler.slow=delay:300ms"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()
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
	cfg := resilienceConfig()
	cfg.Store = st
	s := NewWithConfig(st.Graph(), datagen.ExampleNS, cfg)
	defer s.Close()

	if code, xc, _, _ := doSparql(s, laptopQuery()); code != http.StatusOK || xc != "miss" {
		t.Fatalf("prime = %d %q", code, xc)
	}
	update := httptest.NewRequest("POST", "/sparql", strings.NewReader(url.Values{
		"update": {`PREFIX ex: <` + datagen.ExampleNS + `> INSERT DATA { ex:fresh a ex:Laptop . }`},
	}.Encode()))
	update.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, update)
	if rec.Code != http.StatusOK {
		t.Fatalf("update = %d %s", rec.Code, rec.Body)
	}

	for i := 0; i < 8; i++ {
		req := httptest.NewRequest("POST", "/api/checkpoint", strings.NewReader("{}"))
		req.Header.Set("X-Fault", "slow")
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("checkpoint %d = %d %s", i, rec.Code, rec.Body)
		}
	}
	if fault.Hits("server.handler.slow") != 8 {
		t.Fatalf("slow site hit %d times, want 8", fault.Hits("server.handler.slow"))
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz after slow checkpoints = %d %s", rec.Code, rec.Body)
	}
	if code, xc, _, _ := doSparql(s, laptopQuery()); code != http.StatusOK || xc != "miss" {
		t.Fatalf("query after the write = %d X-Cache=%q, want a fresh 200 miss", code, xc)
	}
}
