package sparql_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/sparql"
)

// TestTableMatchesResults: a SELECT's bodies encoded from its ID rows are the
// bytes the term table's writers (results_ref_test.go) produce for the same
// answer decoded, before and after sorting, and Table.Sort leaves the rows
// where Results.Sort does — over every corpus SELECT, seeded random queries
// on a products graph, computed values (BIND, aggregates, YEAR), unbound
// cells, language tags, datatypes and every escape class, and while
// INSERT DATA grows the dictionary under the queries.
func TestTableMatchesResults(t *testing.T) {
	checked := 0
	check := func(label string, g *rdf.Graph, src string) {
		t.Helper()
		q, err := sparql.Parse(src)
		if err != nil || q.Form != sparql.FormSelect {
			t.Fatalf("%s: not a SELECT (%v): %s", label, err, src)
		}
		tab, err := sparql.ExecSelectTable(context.Background(), g, q, sparql.Options{})
		if err != nil {
			return // the corpus has queries that abort
		}
		res := tab.Results()
		for _, phase := range []string{"as answered", "sorted"} {
			if phase == "sorted" {
				tab.Sort()
				res.Sort()
				if got := tab.Results(); !reflect.DeepEqual(got.Rows, res.Rows) {
					t.Fatalf("%s: Table.Sort and Results.Sort disagree\nquery: %s", label, src)
				}
			}
			if got, want := tab.JSON(), res.JSON(); !bytes.Equal(got, want) {
				t.Fatalf("%s, %s: the table encodes\n%s\nthe term table\n%s\nquery: %s", label, phase, got, want, src)
			}
			var got, want bytes.Buffer
			if err := tab.WriteCSV(&got); err != nil {
				t.Fatal(err)
			}
			if err := res.WriteCSV(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s, %s: the table's CSV\n%s\nthe term table's\n%s\nquery: %s", label, phase, got.Bytes(), want.Bytes(), src)
			}
		}
		checked++
	}
	for _, c := range corpusSelects(t) {
		name := c.Category + "/" + c.Name
		g, query := loadCorpusCase(t, name)
		check(name, g, query)
	}
	products := productsOracleGraph()
	gen := newQueryGen(products, 42)
	for i := 0; i < 200; i++ {
		check(fmt.Sprint("random ", i), products, gen.next())
	}
	g := oddTermsGraph()
	for i, src := range oddTermQueries {
		check(fmt.Sprint("odd terms ", i), g, src)
	}
	if checked < 280 {
		t.Errorf("%d queries compared, want the corpus, 200 random and %d odd-term ones", checked, len(oddTermQueries))
	}

	// The same while INSERT DATA adds, to a predicate no query reads, the
	// very terms the queries compute: a computed value may become a graph
	// term between its evaluation and its encoding.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			update := fmt.Sprintf(`INSERT DATA { <http://e/new%d> <http://e/fresh> "computed-%d", "%d"^^<http://www.w3.org/2001/XMLSchema#integer> }`, i, i%40, 1990+i%40)
			if _, err := sparql.ExecUpdate(g, update); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for run := 0; run < 10; run++ {
		for i, src := range oddTermQueries {
			if !strings.Contains(src, "?p") {
				check(fmt.Sprintf("racing inserts, run %d, odd terms %d", run, i), g, src)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// oddTermsGraph holds every term shape and escape class a body can carry:
// IRIs and blank nodes, plain, language-tagged and typed literals, strings
// with each character JSON and CSV escape, invalid UTF-8, and dates.
func oddTermsGraph() *rdf.Graph {
	ex := func(l string) rdf.Term { return rdf.NewIRI("http://e/" + l) }
	values := []rdf.Term{
		ex("<a>&b"), rdf.NewBlank("b0"), rdf.NewString("tab\t \"q\" \\ \x01 \u2028\u2029 caf\u00e9 \xff"),
		rdf.NewString("comma, \"quote\"\nnewline\r"), rdf.NewLangString("chat", "fr"), rdf.NewLangString("chat", "en-GB"),
		rdf.NewInteger(7), rdf.NewDecimal(9.5), rdf.NewTyped("x", "http://e/dt\n"), rdf.NewString(""),
	}
	g := rdf.NewGraph()
	for i, v := range values {
		s := ex(fmt.Sprint("s", i))
		g.Add(rdf.NewTriple(s, ex("v"), v))
		g.Add(rdf.NewTriple(s, ex("n"), rdf.NewInteger(int64(i))))
		if i%3 != 0 {
			g.Add(rdf.NewTriple(s, ex("d"), rdf.NewTyped(fmt.Sprintf("%d-0%d-1%d", 1990+i, 1+i%9, i%10), rdf.XSDDate)))
		}
		if i%2 == 0 {
			g.Add(rdf.NewTriple(s, ex("next"), ex(fmt.Sprint("s", (i+1)%len(values)))))
		}
	}
	return g
}

// oddTermQueries read oddTermsGraph: computed values next to graph terms,
// unbound cells, and every modifier. The two with a variable predicate read
// what the racing inserts write, so that phase leaves them out.
var oddTermQueries = []string{
	`SELECT * WHERE { ?s ?p ?o }`,
	`SELECT ?o (STR(?o) AS ?str) (LANG(?o) AS ?lang) (DATATYPE(?o) AS ?dt) WHERE { ?s <http://e/v> ?o FILTER(isLiteral(?o)) }`,
	`SELECT ?s ?y WHERE { ?s <http://e/d> ?d BIND(YEAR(?d) AS ?y) }`,
	`SELECT ?s ?o ?y WHERE { ?s <http://e/v> ?o OPTIONAL { ?s <http://e/d> ?d BIND(YEAR(?d) AS ?y) } }`,
	`SELECT ?s ?t ?u WHERE { ?s <http://e/v> ?o OPTIONAL { ?s <http://e/next> ?t . ?t <http://e/v> ?u } }`,
	`SELECT ?s (CONCAT("computed-", STR(?n)) AS ?c) (?n * 2 AS ?twice) WHERE { ?s <http://e/n> ?n }`,
	`SELECT ?y (COUNT(*) AS ?n) (SUM(?k) AS ?sum) (AVG(?k) AS ?avg) (GROUP_CONCAT(STR(?o); SEPARATOR="<&>\t") AS ?all) (SAMPLE(?o) AS ?any)
	 WHERE { ?s <http://e/v> ?o ; <http://e/n> ?k OPTIONAL { ?s <http://e/d> ?d BIND(YEAR(?d) AS ?y) } } GROUP BY ?y`,
	`SELECT DISTINCT ?o WHERE { ?s ?p ?o } ORDER BY DESC(?o) LIMIT 8 OFFSET 1`,
	`SELECT ?x ?z WHERE { VALUES (?x ?z) { ("a"@en UNDEF) (UNDEF <http://e/x>) ("b " "c") } }`,
	`SELECT ?s ?b WHERE { ?s <http://e/n> ?n BIND(IF(?n > 4, BNODE(), "small") AS ?b) FILTER(?n < 3 || ?n > 7) }`,
}
