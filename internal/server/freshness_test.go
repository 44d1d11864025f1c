package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
)

// hotQueries is the families of the standing benchmark's 32-query hot set
// (benchmark/workload.go): star selects, ORDER BY + LIMIT tops, grouped
// counts over a two-hop chain, filtered averages, the paper's E5 queries,
// grouped averages and HAVING sums.
func hotQueries() []string {
	ns := datagen.ExampleNS
	pre := "PREFIX ex: <" + ns + "> "
	var out []string
	for c := 1; c <= 8; c++ {
		out = append(out,
			pre+fmt.Sprintf("SELECT ?l ?p ?d WHERE { ?l ex:manufacturer ex:Company%d ; ex:USBPorts %d ; ex:price ?p ; ex:releaseDate ?d . FILTER(?p < 1500) }", c, c%5+1),
			pre+fmt.Sprintf("SELECT ?l ?p WHERE { ?l a ex:Laptop ; ex:manufacturer ex:Company%d ; ex:price ?p } ORDER BY DESC(?p) ?l LIMIT 50", c))
	}
	for usb := 1; usb <= 5; usb++ {
		out = append(out, pre+fmt.Sprintf("SELECT ?o (COUNT(?l) AS ?n) WHERE { ?l ex:USBPorts %d ; ex:manufacturer ?m . ?m ex:origin ?o } GROUP BY ?o", usb))
	}
	for _, k := range []int{500, 800, 1100, 1400} {
		out = append(out, pre+fmt.Sprintf("SELECT (AVG(?p) AS ?a) (COUNT(?l) AS ?n) WHERE { ?l a ex:Laptop ; ex:price ?p . FILTER(?p >= %d) }", k))
	}
	typ := "?x1 <" + rdf.RDFType + "> <" + ns + "Laptop> .\n"
	p := func(local string) string { return "<" + ns + local + ">" }
	out = append(out,
		"SELECT (AVG(?x2) AS ?avg_price)\nWHERE {\n"+typ+"?x1 "+p("price")+" ?x2 .\n}",
		"SELECT ?x3 (COUNT(?x1) AS ?count)\nWHERE {\n"+typ+"?x1 "+p("manufacturer")+" ?x2 .\n?x2 "+p("origin")+" ?x3 .\n}\nGROUP BY ?x3",
		"SELECT ?x2 (AVG(?x4) AS ?avg_price)\nWHERE {\n"+typ+"?x1 "+p("manufacturer")+" ?x2 .\n?x1 "+p("USBPorts")+" ?x3 .\nFILTER((?x3 >= 2))\n?x1 "+p("price")+" ?x4 .\n}\nGROUP BY ?x2",
		"SELECT ?x2 ?x4 (SUM(?x5) AS ?sum_price)\nWHERE {\n"+typ+"?x1 "+p("manufacturer")+" ?x2 .\n?x1 "+p("manufacturer")+" ?x3 .\n?x3 "+p("origin")+" ?x4 .\n?x1 "+p("price")+" ?x5 .\n}\nGROUP BY ?x2 ?x4\nHAVING (SUM(?x5) > 0)")
	for _, k := range []int{2, 3, 4} {
		out = append(out, pre+fmt.Sprintf("SELECT ?m (AVG(?p) AS ?a) WHERE { ?l ex:manufacturer ?m ; ex:USBPorts ?u ; ex:price ?p . FILTER(?u >= %d) } GROUP BY ?m", k))
	}
	for _, x := range []int{10000, 20000, 30000} {
		out = append(out, pre+fmt.Sprintf("SELECT ?m ?o (SUM(?p) AS ?s) WHERE { ?l ex:manufacturer ?m ; ex:price ?p . ?m ex:origin ?o } GROUP BY ?m ?o HAVING (SUM(?p) > %d)", x))
	}
	return out[:32]
}

// diffWrites is the triples the differential's writes toggle: each write
// deletes its triple when present and inserts it when absent. Some are in
// the generated graph, some are new; they fall on predicates the hot set and
// the runs read (price, USBPorts, manufacturer, origin), on predicates
// nothing reads (size, hardDrive, and weight, which the graph lacks), and on
// rdf:type.
func diffWrites(g *rdf.Graph) (triples []string, present map[string]bool) {
	ns := datagen.ExampleNS
	iri := func(local string) rdf.Term { return rdf.NewIRI(ns + local) }
	present = map[string]bool{}
	add := func(s, p, o rdf.Term) {
		tr := s.String() + " " + p.String() + " " + o.String() + " ."
		triples = append(triples, tr)
		present[tr] = g.Has(rdf.Triple{S: s, P: p, O: o})
	}
	existing := func(s, p rdf.Term) {
		g.Match(s, p, rdf.Any, func(t rdf.Triple) bool {
			add(t.S, t.P, t.O)
			return false
		})
	}
	typ := rdf.NewIRI(rdf.RDFType)
	for _, k := range []int{3, 17, 42} {
		laptop := iri(fmt.Sprint("laptop", k))
		for _, p := range []string{"price", "USBPorts", "manufacturer", "hardDrive"} {
			existing(laptop, iri(p))
		}
		add(laptop, iri("price"), rdf.NewInteger(int64(600+k)))
		add(laptop, iri("USBPorts"), rdf.NewInteger(int64(k%5+1)))
		add(laptop, iri("manufacturer"), iri(fmt.Sprint("Company", k%8+1)))
		add(laptop, iri("weight"), rdf.NewInteger(int64(k)))
		add(laptop, iri("hardDrive"), iri("hd1"))
		add(iri(fmt.Sprint("hd", k)), typ, iri("Laptop"))
	}
	for c := 1; c <= 3; c++ {
		company := iri(fmt.Sprint("Company", c))
		existing(company, iri("origin"))
		existing(company, iri("size"))
		add(company, iri("origin"), iri("Atlantis"))
		add(company, iri("size"), rdf.NewInteger(7))
	}
	add(iri("newLaptop"), typ, iri("Laptop"))
	add(iri("newLaptop"), iri("manufacturer"), iri("Company1"))
	return triples, present
}

// freshnessPair is a server with the answer cache next to one without, over
// clones of one graph, each with the same two sessions at the same Σ click.
type freshnessPair struct {
	cached, plain *Server
	writes        []string
	present       map[string]bool
}

// runSessions are the sessions whose Σ clicks the traces make: laptops
// counted by manufacturer and by USB ports.
var runSessions = map[string]string{"run-m": "manufacturer", "run-u": "USBPorts"}

func newFreshnessPair(t *testing.T) *freshnessPair {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 80, Companies: 16, Seed: 1, Materialize: true})
	p := &freshnessPair{
		cached: NewWithConfig(g.Clone(), datagen.ExampleNS, resilienceConfig()),
		plain:  NewWithConfig(g.Clone(), datagen.ExampleNS, Config{}),
	}
	t.Cleanup(p.cached.Close)
	t.Cleanup(p.plain.Close)
	p.writes, p.present = diffWrites(g)
	for session, local := range runSessions {
		laptopsBy(t, p.cached, session, local)
		laptopsBy(t, p.plain, session, local)
	}
	return p
}

// read sends one read — a hot query, or a Σ click when q names a session —
// and returns status, X-Cache and body.
func read(s *Server, q string) (int, string, []byte) {
	var code int
	var xc string
	var body []byte
	if _, ok := runSessions[q]; ok {
		code, xc, _, body = doRun(s, q)
	} else {
		code, xc, _, body = doSparql(s, q)
	}
	return code, xc, body
}

// write toggles triple i on both servers.
func (p *freshnessPair) write(t *testing.T, i int) {
	t.Helper()
	tr := p.writes[i]
	verb := "INSERT DATA"
	if p.present[tr] {
		verb = "DELETE DATA"
	}
	p.present[tr] = !p.present[tr]
	for _, s := range []*Server{p.cached, p.plain} {
		if code := doUpdate(s, verb+" { "+tr+" }"); code != http.StatusOK {
			t.Fatalf("%s { %s } = %d", verb, tr, code)
		}
	}
}

// same requires the cached server's answer to q to be the plain one's.
func (p *freshnessPair) same(t *testing.T, step int, q string) string {
	t.Helper()
	code, xc, got := read(p.cached, q)
	wantCode, _, want := read(p.plain, q)
	if code != wantCode || string(got) != string(want) {
		t.Fatalf("step %d: %q X-Cache %q = %d\n%s\nwithout the cache = %d\n%s", step, q, xc, code, got, wantCode, want)
	}
	return xc
}

// TestCacheAnswersAsWithout is the answer cache's differential. Seeded
// random traces interleave the hot set, two sessions' Σ runs and INSERT DATA
// / DELETE DATA on predicates the reads read, on predicates they do not read
// and on rdf:type; a server with the answer cache and one without
// (CacheBytes 0) answer each, and every body must be identical. One trace
// sends its reads concurrently, from four clients between two writes. Then a
// write to a predicate no cached answer reads leaves every next read a hit,
// and a write to ex:price outdates exactly the answers that read it.
func TestCacheAnswersAsWithout(t *testing.T) {
	p := newFreshnessPair(t)
	reads := append(hotQueries(), "run-m", "run-u")
	hits := 0
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 80; step++ {
			if rng.Intn(4) == 0 {
				p.write(t, rng.Intn(len(p.writes)))
				continue
			}
			if p.same(t, step, reads[rng.Intn(len(reads))]) == "hit" {
				hits++
			}
		}
	}
	if hits == 0 {
		t.Error("no read of the sequential traces was a hit")
	}

	// Concurrent: between two writes, four clients send a segment's reads at
	// once; each body must be the plain server's answer over that graph.
	rng := rand.New(rand.NewSource(4))
	for seg := 0; seg < 8; seg++ {
		segment := make([]string, 20)
		for i := range segment {
			segment[i] = reads[rng.Intn(len(reads))]
		}
		want := map[string]string{}
		for _, q := range segment {
			if _, ok := want[q]; !ok {
				_, _, body := read(p.plain, q)
				want[q] = string(body)
			}
		}
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < len(segment); i += 4 {
					q := segment[i]
					if code, xc, body := read(p.cached, q); code != http.StatusOK || string(body) != want[q] {
						t.Errorf("segment %d: %q X-Cache %q = %d\n%s\nwithout the cache\n%s", seg, q, xc, code, body, want[q])
					}
				}
			}(c)
		}
		wg.Wait()
		p.write(t, rng.Intn(len(p.writes)))
	}

	// A write to a predicate no cached answer reads keeps them all.
	for _, q := range reads {
		p.same(t, -1, q)
	}
	for _, s := range []*Server{p.cached, p.plain} {
		if code := doUpdate(s, `INSERT DATA { <`+datagen.ExampleNS+`benchScratch> <`+datagen.ExampleNS+`benchNote> "scratch" }`); code != http.StatusOK {
			t.Fatalf("unrelated write = %d", code)
		}
	}
	for _, q := range reads {
		if xc := p.same(t, -1, q); xc != "hit" {
			t.Errorf("after a write to a predicate nothing reads, %q is X-Cache %q, want hit", q, xc)
		}
	}
	// A write to ex:price outdates the answers that read it, and only them.
	for i, tr := range p.writes {
		if strings.Contains(tr, "price>") {
			p.write(t, i)
			break
		}
	}
	for _, q := range reads {
		readsPrice := strings.Contains(q, "price") // the runs count laptops
		if xc := p.same(t, -1, q); (xc == "hit") == readsPrice {
			t.Errorf("after a price write, %q is X-Cache %q (reads ex:price: %v)", q, xc, readsPrice)
		}
	}
}
