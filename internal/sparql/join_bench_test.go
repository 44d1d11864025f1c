package sparql_test

import (
	"context"
	"runtime"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/sparql"
)

// joinStepPrefix opens every query of joinStepShapes.
const joinStepPrefix = "PREFIX ex: <http://example.org/products#> "

// joinStepShapes are BenchmarkJoinStep's queries, one per shape.
var joinStepShapes = []struct{ name, query string }{
	{"chain", `SELECT DISTINCT ?cont ?c WHERE { ?l ex:USBPorts 3 ; ex:hardDrive ?h . ?h ex:manufacturer ?m . ?m ex:origin ?c . ?c ex:locatedAt ?cont }`},
	{"star-filter", `SELECT ?m (AVG(?p) AS ?a) WHERE { ?l ex:manufacturer ?m ; ex:USBPorts ?u ; ex:price ?p . FILTER(?u >= 2) } GROUP BY ?m`},
	{"group-by", `SELECT ?x2 ?x4 (SUM(?x5) AS ?sum_price) WHERE { ?x1 a ex:Laptop . ?x1 ex:manufacturer ?x2 . ?x1 ex:manufacturer ?x3 . ?x3 ex:origin ?x4 . ?x1 ex:price ?x5 . } GROUP BY ?x2 ?x4 HAVING (SUM(?x5) > 0)`},
	{"big-select", `SELECT ?l ?p ?d ?u WHERE { ?l a ex:Laptop ; ex:price ?p ; ex:releaseDate ?d ; ex:USBPorts ?u . FILTER(?p >= 600) }`},
	{"big-select-json", `SELECT ?l ?p ?d ?u WHERE { ?l a ex:Laptop ; ex:price ?p ; ex:releaseDate ?d ; ex:USBPorts ?u . FILTER(?p >= 600) }`},
	{"optional", `SELECT ?l ?h ?hm WHERE { ?l ex:manufacturer ex:Company1 ; ex:price ?p . FILTER(?p > 1900) OPTIONAL { ?l ex:hardDrive ?h . ?h ex:manufacturer ?hm } }`},
	{"semi-join", `SELECT (AVG(?x2) AS ?a) WHERE { ?x1 a ex:Laptop . ?x1 ex:price ?x2 }`},
	{"bind-year", `SELECT ?y (COUNT(?l) AS ?n) WHERE { ?l ex:manufacturer ex:Company1 ; ex:releaseDate ?d . BIND(YEAR(?d) AS ?y) } GROUP BY ?y`},
	{"sum-by-maker", `SELECT ?m (SUM(?p) AS ?s) WHERE { ?l ex:manufacturer ?m ; ex:price ?p } GROUP BY ?m`},
	{"order-by-date", `SELECT ?l ?d WHERE { ?l ex:manufacturer ex:Company1 ; ex:releaseDate ?d } ORDER BY ?d`},
}

// BenchmarkJoinStep runs one query of each shape the standing benchmark's
// sparql-cold workload sends (benchmark/workload.go), on that workload's graph,
// and the HIFUN semi-join a one-attribute Σ click translates to: B/op per
// shape is what the engine allocates for it, decoded into Results, with no
// server, client or response body in the reading. big-select-json is the
// server's side of a /sparql miss for big-select instead: the answer table
// executed, sorted and encoded. sum-by-maker and order-by-date are the
// numeric aggregate and the date sort of an analytic click, next to
// bind-year's derived attribute. Each shape starts from a drained row-block
// pool (two collections empty a sync.Pool), so its B/op is its own and not
// what the shape before it left pooled.
func BenchmarkJoinStep(b *testing.B) {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 22400, Companies: 16, Seed: 1})
	rdf.Materialize(g)
	for _, c := range joinStepShapes {
		q := sparql.MustParse(joinStepPrefix + c.query)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			runtime.GC()
			runtime.GC()
			for b.Loop() {
				if c.name != "big-select-json" {
					if _, err := sparql.ExecSelectOpts(g, q, sparql.Options{}); err != nil {
						b.Fatal(err)
					}
					continue
				}
				tab, err := sparql.ExecSelectTable(context.Background(), g, q, sparql.Options{})
				if err != nil {
					b.Fatal(err)
				}
				tab.Sort()
				tab.JSON()
			}
		})
	}
}
