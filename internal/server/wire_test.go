package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rdfanalytics/internal/core"
	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
)

// TestBodiesMatchReference replays seeded random click sessions — every
// state handler, expand and run — against datagen products and invoices and
// an adversarial graph, and requires each 200 body to be the bytes
// json.NewEncoder(w).Encode writes for the reference mirror structs of
// state_ref_test.go, built from the session as the handler left it.
func TestBodiesMatchReference(t *testing.T) {
	products := datagen.Products(datagen.ProductsConfig{Laptops: 300, Companies: 10, Seed: 1, Materialize: true})
	invoices := datagen.Invoices(datagen.InvoicesConfig{Invoices: 400, Seed: 2})
	rdf.Materialize(invoices)
	for _, tc := range []struct {
		name string
		g    *rdf.Graph
		ns   string
	}{
		{"products", products, datagen.ExampleNS},
		{"invoices", invoices, datagen.InvoicesNS},
		{"adversarial", adversarialGraph(), advNS},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(tc.g, tc.ns)
			compared := map[string]int{}
			for k := 0; k < 6; k++ {
				replaySession(t, s, fmt.Sprintf("s%d", k), rand.New(rand.NewSource(int64(k))), 40, compared)
			}
			// Every kind of body was compared at least once.
			for _, path := range []string{"/api/state", "/api/click/class", "/api/click/value", "/api/click/range",
				"/api/expand", "/api/pivot", "/api/groupby", "/api/aggregate", "/api/run", "/api/back", "/api/reset"} {
				if compared[path] == 0 {
					t.Errorf("no 200 answer of %s was compared: %v", path, compared)
				}
			}
		})
	}
}

// call is one request of a replayed session.
type call struct {
	method, path string
	body         any
}

// replaySession drives session id through steps random calls, each chosen
// from the last state it was shown, and compares every 200 body of a state,
// expand or run handler to the reference.
func replaySession(t *testing.T, s *Server, id string, rng *rand.Rand, steps int, compared map[string]int) {
	t.Helper()
	var st stateJSON
	c := call{"GET", "/api/state", nil}
	for i := 0; i < steps; i++ {
		var rd io.Reader
		if c.body != nil {
			data, err := json.Marshal(c.body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(data)
		}
		req := httptest.NewRequest(c.method, c.path, rd)
		req.Header.Set("X-Session", id)
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code == http.StatusOK {
			got := rec.Body.Bytes()
			if want := referenceBody(t, s, id, c); !bytes.Equal(got, want) {
				n := 0
				for n < len(got) && n < len(want) && got[n] == want[n] {
					n++
				}
				t.Fatalf("session %s step %d %s %v: body differs from encoding/json at byte %d:\n got …%s\nwant …%s",
					id, i, c.path, c.body, n, excerpt(got, n), excerpt(want, n))
			}
			compared[c.path]++
			if c.path != "/api/expand" && c.path != "/api/run" {
				st = stateJSON{}
				if err := json.Unmarshal(got, &st); err != nil {
					t.Fatal(err)
				}
			}
		}
		c = nextCall(rng, &st)
	}
}

func excerpt(b []byte, at int) []byte {
	return b[max(0, at-60):min(len(b), at+60)]
}

// referenceBody encodes the reference of what c's handler answers, computed
// from session id as the handler left it.
func referenceBody(t *testing.T, s *Server, id string, c call) []byte {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessions[id].sess
	var v any
	switch c.path {
	case "/api/expand":
		steps := c.body.(map[string]any)["path"].([]core.StepJSON)
		v = refValues(sess.Model(), sess.Model().ExpandPath(sess.State(), core.PathOf(steps)))
	case "/api/run":
		q, err := sess.BuildHIFUNQuery()
		if err != nil {
			t.Fatal(err)
		}
		v = refAnswer(sess.Answer(), q.String())
	default:
		v = stateLocked(sess)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("%s: reference does not encode: %v", c.path, err)
	}
	return buf.Bytes()
}

// nextCall picks a random interaction from what state st shows: its classes,
// facets and their values, the G/Σ buttons, run, and the level and history
// moves.
func nextCall(rng *rand.Rand, st *stateJSON) call {
	var classes []string
	var walk func([]classJSON)
	walk = func(ns []classJSON) {
		for _, n := range ns {
			classes = append(classes, n.IRI)
			walk(n.Children)
		}
	}
	walk(st.Classes)
	var valued, numeric []facetJSON
	for _, f := range st.Facets {
		if len(f.Values) > 0 {
			valued = append(valued, f)
			if f.Numeric && !f.Inverse {
				numeric = append(numeric, f)
			}
		}
	}
	step := func(f facetJSON) core.StepJSON { return core.StepJSON{P: f.P, Inverse: f.Inverse} }
	term := func(f facetJSON) core.TermJSON {
		t := f.Values[rng.Intn(len(f.Values))].Term
		return core.TermJSON{Kind: t.Kind, Value: t.Value, Datatype: t.Datatype, Lang: t.Lang}
	}
	pick := func(fs []facetJSON) facetJSON { return fs[rng.Intn(len(fs))] }
	switch r := rng.Intn(16); {
	case r == 0:
		return call{"GET", "/api/state", nil}
	case r <= 2 && len(classes) > 0:
		return call{"POST", "/api/click/class", map[string]any{"class": classes[rng.Intn(len(classes))]}}
	case r <= 4 && len(valued) > 0:
		f := pick(valued)
		if rng.Intn(3) == 0 {
			return call{"POST", "/api/click/value", map[string]any{"path": []core.StepJSON{step(f)}, "values": []core.TermJSON{term(f), term(f)}}}
		}
		return call{"POST", "/api/click/value", map[string]any{"path": []core.StepJSON{step(f)}, "value": term(f)}}
	case r == 5 && len(numeric) > 0:
		f := pick(numeric)
		op := []string{"<", "<=", ">", ">="}[rng.Intn(4)]
		return call{"POST", "/api/click/range", map[string]any{"path": []core.StepJSON{step(f)}, "op": op, "value": term(f)}}
	case r == 6 && len(valued) > 0:
		return call{"POST", "/api/expand", map[string]any{"path": []core.StepJSON{step(pick(valued)), step(pick(valued))}}}
	case r == 7 && len(valued) > 0:
		f := pick(valued)
		return call{"POST", "/api/pivot", map[string]any{"p": f.P, "inverse": f.Inverse}}
	case r <= 9 && len(valued) > 0:
		f := pick(valued)
		body := map[string]any{"path": []core.StepJSON{step(f)}}
		if t := term(f); t.Datatype == rdf.XSDDate && rng.Intn(2) == 0 {
			body["derive"] = "year"
		}
		return call{"POST", "/api/groupby", body}
	case r <= 11:
		ops := []string{"count", "sum", "avg", "min", "max"}
		if len(numeric) == 0 || rng.Intn(4) == 0 {
			return call{"POST", "/api/aggregate", map[string]any{"path": []core.StepJSON{}, "op": "count"}}
		}
		return call{"POST", "/api/aggregate", map[string]any{"path": []core.StepJSON{step(pick(numeric))}, "op": ops[rng.Intn(len(ops))]}}
	case r <= 13:
		return call{"POST", "/api/run", nil}
	}
	return call{"POST", []string{"/api/back", "/api/reset", "/api/load-answer", "/api/close-level"}[rng.Intn(4)], nil}
}

const advNS = "http://adv.example/"

// adversarialGraph holds what a hand-written encoder gets wrong: `<>&`,
// U+2028, invalid UTF-8 and control characters in values and IRIs, language
// tags, datatypes (and none), blank nodes, IRIs ending in / or # (a label is
// then the whole IRI), a three-deep class tree, an inverse facet, and numeric
// facets whose bucket bounds run from 1e-8 past 1e21 and below zero.
func adversarialGraph() *rdf.Graph {
	g := rdf.NewGraph()
	iri := func(local string) rdf.Term { return rdf.NewIRI(advNS + local) }
	typ, sub := rdf.NewIRI(rdf.RDFType), rdf.NewIRI(rdf.RDFSSubClassOf)
	add := func(s, p, o rdf.Term) { g.Add(rdf.Triple{S: s, P: p, O: o}) }
	add(iri("Sub"), sub, iri("Thing"))
	add(iri("Leaf"), sub, iri("Sub"))
	add(iri("odd/"), sub, iri("Thing"))
	add(rdf.NewIRI("http://adv.example/hash#"), sub, iri("Thing"))
	classes := []rdf.Term{iri("Leaf"), iri("Sub"), iri("Thing"), iri("odd/"), rdf.NewIRI("http://adv.example/hash#")}
	names := []rdf.Term{
		rdf.NewString("<b>&amp;</b>"), rdf.NewString("line\u2028sep\u2029"), rdf.NewString("bad\xff\xfe utf8"),
		rdf.NewString("ctl\x01\t\n\x1f\"\\"), rdf.NewLangString("chat", "fr"), rdf.NewLangString("Ünïcödé 日本", "ja-JP"),
		rdf.NewTyped("no datatype", ""), rdf.NewString(""), rdf.NewTyped("x", "http://adv.example/dt<&>"),
	}
	links := []rdf.Term{
		iri("a<b>&c"), iri("slash/"), rdf.NewIRI("http://adv.example/frag#"), rdf.NewBlank("b1"),
		rdf.NewBlank("b\u2028"), iri("bad\xffiri"), iri("plain"),
	}
	tiny := []float64{5e-8, 1e-7, 2.5e-7, 4.5e-7, 9e-7}
	huge := []float64{-3e22, 1e20, 5e21, 2.5e21, -7}
	mixed := []float64{-5, 0.5, 1e-7, 2.5e6, -1e-7, 0}
	for i := 0; i < 40; i++ {
		e := iri(fmt.Sprintf("e%d", i))
		if i%9 == 8 {
			e = rdf.NewBlank(fmt.Sprintf("n%d", i))
		}
		add(e, typ, classes[i%len(classes)])
		add(e, iri("name"), names[i%len(names)])
		add(e, iri("link"), links[i%len(links)])
		add(e, iri("prop/"), links[(i+3)%len(links)])
		add(e, iri("knows"), iri(fmt.Sprintf("e%d", (i+1)%40))) // an inverse facet
		add(e, iri("tiny"), rdf.NewDouble(tiny[i%len(tiny)]))
		add(e, iri("huge"), rdf.NewDouble(huge[i%len(huge)]))
		add(e, iri("mixed"), rdf.NewDecimal(mixed[i%len(mixed)]))
		add(e, iri("day"), rdf.NewTyped(fmt.Sprintf("20%02d-0%d-1%d", 19+i%4, 1+i%9, i%10), rdf.XSDDate))
		if i%4 == 0 {
			add(e, iri("inf"), rdf.NewTyped("INF", rdf.XSDDouble))
		} else {
			add(e, iri("inf"), rdf.NewInteger(int64(i)))
		}
	}
	rdf.Materialize(g)
	return g
}

// TestNonFiniteSpreadStateIsJSON: a numeric facet holding "INF", or values
// whose spread overflows a float, still answers a click with a JSON body
// carrying its buckets (it used to answer 200 with no body at all).
func TestNonFiniteSpreadStateIsJSON(t *testing.T) {
	for name, values := range map[string][]string{
		"infinite value":     {"1", "2.5", `"INF"^^xsd:double`, "7"},
		"overflowing spread": {"-1.7e308", "1.7e308", "0"},
	} {
		src := "@prefix ex: <http://e/> .\n@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
		for i, v := range values {
			src += fmt.Sprintf("ex:x%d a ex:T ; ex:v %s .\n", i, v)
		}
		s := New(rdf.MustLoadTurtle(src), "http://e/")
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/api/click/class", strings.NewReader(`{"class":"http://e/T"}`)))
		if body := rec.Body.Bytes(); rec.Code != http.StatusOK || !json.Valid(body) || !bytes.Contains(body, []byte(`"buckets":`)) {
			t.Errorf("%s: %d %q", name, rec.Code, body)
		}
	}
}

// FuzzJSONFloat holds appendJSONFloat, which writes bucket bounds, to
// encoding/json for every finite float64.
func FuzzJSONFloat(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 123456.789, 1e-6, 9.999999e-7, 1e-7, -2.5e-7,
		5e-8, 1e-10, 1e21, 9.99e20, -1e21, 1e100, 1e-300, 5e-324, math.MaxFloat64, -math.MaxFloat64} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Skip("encoding/json rejects non-finite floats")
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONFloat(%v) = %s, encoding/json writes %s", v, got, want)
		}
	})
}

// discardResponse is a ResponseWriter that keeps nothing, so a benchmark
// reads what writing a body allocates, not what storing it does.
type discardResponse struct{ h http.Header }

func (d *discardResponse) Header() http.Header         { return d.h }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}

// BenchmarkStateWrite answers one state request for a Laptop-class state on
// the facet-sessions graph (11 200 laptops, ≈99k triples): the markers are
// the session's remembered ones, so B/op is what one state answer costs
// beyond the transition — the object cards and the body.
func BenchmarkStateWrite(b *testing.B) {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 11200, Companies: 16, Seed: 1, Materialize: true})
	sess := core.NewSession(g, datagen.ExampleNS)
	sess.ClickClass(rdf.NewIRI(datagen.ExampleNS + "Laptop"))
	w := &discardResponse{h: http.Header{}}
	writeState(w, sess)
	b.ReportAllocs()
	for b.Loop() {
		writeState(w, sess)
	}
}
