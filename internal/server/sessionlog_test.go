package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rdfanalytics/internal/core"
	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/fault"
	"rdfanalytics/internal/hifun"
	"rdfanalytics/internal/rdf"
)

// TestSessionIsItsLog drives the seeded random sessions of
// TestBodiesMatchReference — classes, values, ranges, pivots, G and Σ,
// runs, reloads, backs and resets — with an INSERT DATA partway through, and
// after every step holds each session to its click log:
//   - the state it answers is the state RestoreSession(Snapshot()) answers
//     over the same graph;
//   - after a Back, it is the state of a session that never made the popped
//     click (restored from the snapshot taken before it, with the G/Σ
//     selections the Back left).
//
// A reload follows a run directly (and half the runs are reloaded), so the
// answer a level loads is the one its snapshot re-runs.
func TestSessionIsItsLog(t *testing.T) {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 80, Companies: 6, Seed: 1, Materialize: true})
	ns := datagen.ExampleNS
	s := New(g, ns)
	seen := map[string]int{}
	for k := 0; k < 4; k++ {
		id := fmt.Sprintf("s%d", k)
		rng := rand.New(rand.NewSource(int64(k)))
		// befores holds, per level, the snapshot taken before each click
		// its log still records.
		befores := [][][]byte{nil}
		inserted := false
		var st stateJSON
		c := call{"GET", "/api/state", nil}
		for i := 0; i < 40; i++ {
			if !inserted && i >= 20 && len(befores) == 1 {
				update := fmt.Sprintf(`INSERT DATA { <%[1]snew%[2]d> a <%[1]sLaptop> ; <%[1]smanufacturer> <%[1]sCompany1> ; <%[1]sbrandNewProp> %[2]d }`, ns, k)
				if code := doUpdate(s, update); code != http.StatusOK {
					t.Fatalf("%s: INSERT DATA = %d", id, code)
				}
				inserted = true
				seen["insert"]++
			}
			before := snapshotOf(t, s, id)
			rec := sendCall(t, s, id, c)
			top := len(befores) - 1
			if rec.Code == http.StatusOK {
				switch c.path {
				case "/api/click/class", "/api/click/value", "/api/click/range", "/api/pivot":
					befores[top] = append(befores[top], before)
				case "/api/reset":
					befores[top] = nil
				case "/api/load-answer":
					befores = append(befores, nil)
				case "/api/close-level":
					befores = befores[:top]
				case "/api/back":
					n := len(befores[top]) - 1
					if n < 0 {
						t.Fatalf("%s step %d: Back answered 200 with no click logged", id, i)
					}
					never := withAnalyticsOf(t, befores[top][n], snapshotOf(t, s, id))
					befores[top] = befores[top][:n]
					if live, want := liveBody(s, id), restoredBody(t, g, never); !bytes.Equal(live, want) {
						t.Fatalf("%s step %d: after Back the state differs from the session that never clicked:\n%.300s\n%.300s", id, i, live, want)
					}
				}
				seen[c.path]++
				if c.path != "/api/expand" && c.path != "/api/run" {
					st = stateJSON{}
					if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
						t.Fatal(err)
					}
				}
			}
			if live, want := liveBody(s, id), restoredBody(t, g, snapshotOf(t, s, id)); !bytes.Equal(live, want) {
				t.Fatalf("%s step %d %s %v: the state differs from its snapshot's:\n%.300s\n%.300s", id, i, c.path, c.body, live, want)
			}
			ran := c.path == "/api/run" && rec.Code == http.StatusOK
			switch c = nextCall(rng, &st); {
			case ran && rng.Intn(2) == 0:
				c = call{"POST", "/api/load-answer", nil}
			case c.path == "/api/load-answer" && !ran:
				c = call{"GET", "/api/state", nil}
			}
		}
	}
	for _, what := range []string{"insert", "/api/back", "/api/reset", "/api/pivot", "/api/load-answer", "/api/click/range"} {
		if seen[what] == 0 {
			t.Errorf("no %s was made: %v", what, seen)
		}
	}
}

func sendCall(t *testing.T, s *Server, id string, c call) *httptest.ResponseRecorder {
	t.Helper()
	var body []byte
	if c.body != nil {
		var err error
		if body, err = json.Marshal(c.body); err != nil {
			t.Fatal(err)
		}
	}
	return inSession(s, id, c.method, c.path, string(body))
}

// snapshotOf is session id's snapshot, nil before the session exists.
func snapshotOf(t *testing.T, s *Server, id string) []byte {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.sessions[id]
	if !ok {
		return nil
	}
	snap, err := e.sess.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// liveBody is what GET /api/state answers for session id.
func liveBody(s *Server, id string) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec := httptest.NewRecorder()
	writeState(rec, s.sessions[id].sess)
	return rec.Body.Bytes()
}

// restoredBody is the state body of the session snap restores over g; a nil
// snap is a new session.
func restoredBody(t *testing.T, g *rdf.Graph, snap []byte) []byte {
	t.Helper()
	sess := core.NewSession(g, datagen.ExampleNS)
	if snap != nil {
		var err error
		if sess, err = core.RestoreSession(g, snap); err != nil {
			t.Fatalf("restore: %v\n%s", err, snap)
		}
	}
	rec := httptest.NewRecorder()
	writeState(rec, sess)
	return rec.Body.Bytes()
}

// withAnalyticsOf is snapshot before with its top level's G/Σ selections
// taken from snapshot now.
func withAnalyticsOf(t *testing.T, before, now []byte) []byte {
	t.Helper()
	var b, n core.SnapshotJSON
	if err := json.Unmarshal(before, &b); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(now, &n); err != nil {
		t.Fatal(err)
	}
	bt, nt := &b.Levels[len(b.Levels)-1], n.Levels[len(n.Levels)-1]
	bt.GroupBy, bt.Measure, bt.Ops = nt.GroupBy, nt.Measure, nt.Ops
	out, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// stateOf is session's state as GET /api/state answers it.
func stateOf(t *testing.T, s *Server, session string) stateJSON {
	t.Helper()
	var st stateJSON
	if err := json.Unmarshal(inSession(s, session, "GET", "/api/state", "").Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStateFollowsAnUpdate: a DELL laptop inserted under a manufacturer=DELL
// state is one of its objects at once — the state counts what the Σ COUNT
// of the same state counts — and still after a Back and the click again.
func TestStateFollowsAnUpdate(t *testing.T) {
	g := datagen.SmallProducts()
	rdf.Materialize(g)
	s := New(g, datagen.ExampleNS)
	ns := datagen.ExampleNS
	dell := `{"path":[{"p":"` + ns + `manufacturer"}],"value":{"kind":"iri","value":"` + ns + `DELL"}}`
	clicks(t, s, "a",
		"/api/click/class", `{"class":"`+ns+`Laptop"}`,
		"/api/click/value", dell,
		"/api/aggregate", `{"op":"COUNT"}`)
	if code := doUpdate(s, `INSERT DATA { <`+ns+`laptopNew> a <`+ns+`Laptop> ; <`+ns+`manufacturer> <`+ns+`DELL> }`); code != http.StatusOK {
		t.Fatalf("INSERT DATA = %d", code)
	}
	agree := func(when string) {
		t.Helper()
		total := stateOf(t, s, "a").TotalObjects
		code, _, _, body := doRun(s, "a")
		var ans struct{ Rows [][]struct{ Value string } }
		if err := json.Unmarshal(body, &ans); code != http.StatusOK || err != nil || len(ans.Rows) != 1 {
			t.Fatalf("%s: run = %d %s", when, code, body)
		}
		if count := ans.Rows[0][0].Value; count != "3" || total != 3 {
			t.Errorf("%s: the state shows %d objects, its Σ COUNT %s; want 3 and 3", when, total, count)
		}
	}
	agree("right after the update")
	clicks(t, s, "a", "/api/back", "", "/api/click/value", dell)
	agree("after a Back and the click again")
}

// TestFacetsFollowTheSchema: a predicate first used after a session started,
// by an update or by the session's own transform, becomes a facet of the
// state the session answers next.
func TestFacetsFollowTheSchema(t *testing.T) {
	g := datagen.SmallProducts()
	rdf.Materialize(g)
	s := New(g, datagen.ExampleNS)
	ns := datagen.ExampleNS
	hasFacet := func(session, local string) bool {
		for _, f := range stateOf(t, s, session).Facets {
			if f.P == ns+local {
				return true
			}
		}
		return false
	}
	clicks(t, s, "a", "/api/click/class", `{"class":"`+ns+`Laptop"}`)
	clicks(t, s, "b", "/api/click/class", `{"class":"`+ns+`Company"}`)
	if code := doUpdate(s, `INSERT DATA { <`+ns+`laptop1> <`+ns+`brandNewProp> 5 }`); code != http.StatusOK {
		t.Fatalf("INSERT DATA = %d", code)
	}
	if !hasFacet("a", "brandNewProp") {
		t.Error("the predicate an update introduced is no facet")
	}
	s.mu.Lock()
	n, err := s.sessions["b"].sess.ApplyTransform(hifun.FeatureSpec{Op: hifun.FCOCount, P: rdf.NewIRI(ns + "founder"), Feature: rdf.NewIRI(ns + "nFounders")})
	s.mu.Unlock()
	if err != nil || n == 0 {
		t.Fatalf("transform: %d, %v", n, err)
	}
	if !hasFacet("b", "nFounders") {
		t.Error("the feature a COUNT transform created is no facet")
	}
}

// TestOperatorReadsDoNotWaitForARun: /metrics, /api/stats and the dashboard
// answer while a Σ run holds the server's session lock.
func TestOperatorReadsDoNotWaitForARun(t *testing.T) {
	g := datagen.SmallProducts()
	rdf.Materialize(g)
	s := New(g, datagen.ExampleNS)
	laptopsBy(t, s, "a", "manufacturer")
	if err := fault.Configure("server.sparql.exec=delay:600ms"); err != nil {
		t.Fatal(err)
	}
	defer fault.Reset()
	hits0 := fault.Hits("server.sparql.exec")
	done := make(chan int)
	go func() {
		code, _, _, _ := doRun(s, "a")
		done <- code
	}()
	waitUntil(t, "the run executing", func() bool { return fault.Hits("server.sparql.exec") > hits0 })
	for _, path := range []string{"/metrics", "/api/stats", "/debug/dashboard"} {
		start := time.Now()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if took := time.Since(start); rec.Code != http.StatusOK || took > 100*time.Millisecond {
			t.Errorf("GET %s = %d after %v while a run is held", path, rec.Code, took)
		}
	}
	if code := <-done; code != http.StatusOK {
		t.Errorf("the held run = %d", code)
	}
	if body := inSession(s, "a", "GET", "/metrics", "").Body.String(); !strings.Contains(body, "rdfa_http_active_sessions 1") {
		t.Error("the active-sessions gauge does not read 1")
	}
}
