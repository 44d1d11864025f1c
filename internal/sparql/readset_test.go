package sparql

import (
	"slices"
	"strings"
	"testing"

	"rdfanalytics/internal/rdf"
)

// TestReadSet names, per construct, the predicates a query reads: every
// constant predicate wherever its pattern sits, once each in order of first
// appearance, and "all" for a variable predicate, a property path or a
// DESCRIBE.
func TestReadSet(t *testing.T) {
	const pre = "PREFIX ex: <http://e/> PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> "
	all := []string{"all"}
	cases := []struct {
		name, query string
		want        []string // local names under http://e/, "type" for rdf:type; {"all"} for all
	}{
		{"bgp", `SELECT * { ?s ex:a ?o . ?o ex:b ?x . ?s ex:a ?y }`, []string{"a", "b"}},
		{"rdf:type", `SELECT * { ?s a ex:C ; ex:a ?o }`, []string{"type", "a"}},
		{"optional", `SELECT * { ?s ex:a ?o OPTIONAL { ?s ex:b ?x } }`, []string{"a", "b"}},
		{"union", `SELECT * { { ?s ex:a ?o } UNION { ?s ex:b ?o } UNION { ?s ex:c ?o } }`, []string{"a", "b", "c"}},
		{"minus", `SELECT * { ?s ex:a ?o MINUS { ?s ex:b ?o } }`, []string{"a", "b"}},
		{"nested group", `SELECT * { ?s ex:a ?o { ?s ex:b ?x { ?x ex:c ?y } } }`, []string{"a", "b", "c"}},
		{"sub-select", `SELECT * { ?s ex:a ?o { SELECT ?s (COUNT(?x) AS ?n) { ?s ex:b ?x } GROUP BY ?s } }`, []string{"a", "b"}},
		{"filter exists", `SELECT * { ?s ex:a ?o FILTER EXISTS { ?s ex:b ?x } }`, []string{"a", "b"}},
		{"filter not exists", `SELECT * { ?s ex:a ?o FILTER (?o > 1 && NOT EXISTS { ?s ex:b ?x }) }`, []string{"a", "b"}},
		{"bind exists", `SELECT * { ?s ex:a ?o BIND (EXISTS { ?s ex:b ?x } AS ?e) }`, []string{"a", "b"}},
		{"projection exists", `SELECT ?s (EXISTS { ?s ex:b ?x } AS ?e) { ?s ex:a ?o }`, []string{"a", "b"}},
		{"group by exists", `SELECT (COUNT(*) AS ?n) { ?s ex:a ?o } GROUP BY (EXISTS { ?s ex:b ?x })`, []string{"a", "b"}},
		{"having exists", `SELECT ?o (COUNT(?s) AS ?n) { ?s ex:a ?o } GROUP BY ?o HAVING (EXISTS { ?o ex:b ?x })`, []string{"a", "b"}},
		{"order by exists", `SELECT * { ?s ex:a ?o } ORDER BY (EXISTS { ?s ex:b ?x })`, []string{"a", "b"}},
		{"values only", `SELECT * { VALUES ?x { 1 2 } }`, nil},
		{"ask", `ASK { ?s ex:a ?o }`, []string{"a"}},
		{"construct template", `CONSTRUCT { ?s ex:z ?o } WHERE { ?s ex:a ?o }`, []string{"a"}},
		{"variable predicate", `SELECT * { ?s ex:a ?o . ?o ?p ?x }`, all},
		{"variable predicate in optional", `SELECT * { ?s ex:a ?o OPTIONAL { ?o ?p ?x } }`, all},
		{"variable predicate in exists", `SELECT * { ?s ex:a ?o FILTER NOT EXISTS { ?s ?p ?x } }`, all},
		{"sequence path", `SELECT * { ?s ex:a/ex:b ?o }`, all},
		{"star path", `SELECT * { ?s ex:a* ?o }`, all},
		{"inverse path", `SELECT * { ?s ^ex:a ?o }`, all},
		{"describe", `DESCRIBE <http://e/x>`, all},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q, err := Parse(pre + c.query)
			if err != nil {
				t.Fatal(err)
			}
			rs := ReadSet(q)
			var got []string
			if rs.All {
				got = all
				if len(rs.Preds) > 0 {
					t.Errorf("an all read set lists %v", rs.Preds)
				}
			}
			for _, p := range rs.Preds {
				name := strings.TrimPrefix(p.Value, "http://e/")
				if p == rdf.NewIRI(rdf.RDFType) {
					name = "type"
				}
				got = append(got, name)
			}
			if !slices.Equal(got, c.want) {
				t.Errorf("ReadSet = %v, want %v", got, c.want)
			}
		})
	}
}
