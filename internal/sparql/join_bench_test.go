package sparql_test

import (
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/sparql"
)

// BenchmarkJoinStep runs one query of each shape the standing benchmark's
// sparql-cold workload sends (benchmark/workload.go), on that workload's graph,
// and the HIFUN semi-join a one-attribute Σ click translates to: B/op per
// shape is what the engine allocates for it, with no server, client or
// response body in the reading.
func BenchmarkJoinStep(b *testing.B) {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 22400, Companies: 16, Seed: 1})
	rdf.Materialize(g)
	const prefix = "PREFIX ex: <http://example.org/products#> "
	for _, c := range []struct{ name, query string }{
		{"chain", `SELECT DISTINCT ?cont ?c WHERE { ?l ex:USBPorts 3 ; ex:hardDrive ?h . ?h ex:manufacturer ?m . ?m ex:origin ?c . ?c ex:locatedAt ?cont }`},
		{"star-filter", `SELECT ?m (AVG(?p) AS ?a) WHERE { ?l ex:manufacturer ?m ; ex:USBPorts ?u ; ex:price ?p . FILTER(?u >= 2) } GROUP BY ?m`},
		{"group-by", `SELECT ?x2 ?x4 (SUM(?x5) AS ?sum_price) WHERE { ?x1 a ex:Laptop . ?x1 ex:manufacturer ?x2 . ?x1 ex:manufacturer ?x3 . ?x3 ex:origin ?x4 . ?x1 ex:price ?x5 . } GROUP BY ?x2 ?x4 HAVING (SUM(?x5) > 0)`},
		{"big-select", `SELECT ?l ?p ?d ?u WHERE { ?l a ex:Laptop ; ex:price ?p ; ex:releaseDate ?d ; ex:USBPorts ?u . FILTER(?p >= 600) }`},
		{"optional", `SELECT ?l ?h ?hm WHERE { ?l ex:manufacturer ex:Company1 ; ex:price ?p . FILTER(?p > 1900) OPTIONAL { ?l ex:hardDrive ?h . ?h ex:manufacturer ?hm } }`},
		{"semi-join", `SELECT (AVG(?x2) AS ?a) WHERE { ?x1 a ex:Laptop . ?x1 ex:price ?x2 }`},
		{"bind-year", `SELECT ?y (COUNT(?l) AS ?n) WHERE { ?l ex:manufacturer ex:Company1 ; ex:releaseDate ?d . BIND(YEAR(?d) AS ?y) } GROUP BY ?y`},
	} {
		q := sparql.MustParse(prefix + c.query)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := sparql.ExecSelectOpts(g, q, sparql.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
