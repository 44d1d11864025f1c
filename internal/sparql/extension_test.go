package sparql

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
)

// TestExtensionActsAsValues: a query evaluated over an Extension answers, row
// for row and byte for byte, what the same query answers with a VALUES block
// over the relation's terms opening its WHERE — grouped and not, with the
// variable mentioned once or in a filter, an OPTIONAL, a sub-select, and over
// relations empty, random, and holding terms no pattern matches.
func TestExtensionActsAsValues(t *testing.T) {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 300, Companies: 8, Seed: 5})
	const ex = "PREFIX ex: <http://example.org/products#> "
	queries := []string{
		ex + "SELECT ?x ?m WHERE { ?x ex:manufacturer ?m }",
		ex + "SELECT ?m WHERE { ?x ex:manufacturer ?m }",
		ex + "SELECT ?m (AVG(?p) AS ?a) WHERE { ?x ex:manufacturer ?m . ?x ex:price ?p } GROUP BY ?m",
		ex + "SELECT (SUM(?p) AS ?s) WHERE { ?x ex:price ?p }",
		ex + "SELECT (COUNT(?x) AS ?n) WHERE { }",
		ex + "SELECT ?o (COUNT(?x) AS ?n) WHERE { ?x ex:manufacturer ?m . ?m ex:origin ?o . ?x ex:USBPorts ?u FILTER(?u >= 3) } GROUP BY ?o",
		ex + "SELECT ?x ?h WHERE { ?x ex:price ?p . OPTIONAL { ?x ex:hardDrive ?h } FILTER(?p > 900) }",
		ex + "SELECT ?x ?n WHERE { ?x ex:manufacturer ?m . { SELECT ?m (COUNT(?y) AS ?n) WHERE { ?y ex:manufacturer ?m } GROUP BY ?m } }",
		ex + "SELECT DISTINCT ?m WHERE { ?x ex:manufacturer ?m } ORDER BY ?m LIMIT 3",
	}
	laptops := []rdf.ID{}
	view := g.TermView()
	g.MatchIDs(0, mustID(t, g, rdf.NewIRI(rdf.RDFType)), mustID(t, g, rdf.NewIRI(datagen.ExampleNS+"Laptop")), func(s, _, _ rdf.ID) bool {
		laptops = append(laptops, s)
		return true
	})
	rng := rand.New(rand.NewSource(9))
	relations := [][]rdf.ID{nil, laptops}
	for range 6 {
		var ids []rdf.ID
		for _, id := range laptops {
			if rng.Intn(3) == 0 {
				ids = append(ids, id)
			}
		}
		relations = append(relations, ids)
	}
	// Terms the patterns never match: the classes and the predicates.
	relations = append(relations, []rdf.ID{mustID(t, g, rdf.NewIRI(datagen.ExampleNS+"price")), laptops[0], mustID(t, g, rdf.NewIRI(datagen.ExampleNS+"Laptop"))})
	for _, rel := range relations {
		slices.Sort(rel)
		for _, src := range queries {
			q, err := Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ExecSelectTable(context.Background(), g, q, Options{Extension: &Relation{Var: "x", IDs: rel}})
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			block := &ValuesElem{Vars: []string{"x"}, Rows: [][]rdf.Term{}}
			for _, id := range rel {
				block.Rows = append(block.Rows, []rdf.Term{view.Term(id)})
			}
			withValues := *q
			withValues.Where = &GroupPattern{Elems: append([]PatternElem{{Values: block}}, q.Where.Elems...)}
			want, err := ExecSelectTable(context.Background(), g, &withValues, Options{})
			if err != nil {
				t.Fatalf("%s with VALUES: %v", src, err)
			}
			if !bytes.Equal(got.JSON(), want.JSON()) {
				t.Errorf("%s over %d IDs:\n%s\nwith VALUES:\n%s", src, len(rel), got.JSON(), want.JSON())
			}
		}
	}
}

// TestExtensionProfile: EXPLAIN ANALYZE shows the relation as one extension
// node with its rows, and the first scan on its variable runs as an index
// loop over them.
func TestExtensionProfile(t *testing.T) {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 300, Companies: 8, Seed: 5})
	var rel []rdf.ID
	g.MatchIDs(0, mustID(t, g, rdf.NewIRI(datagen.ExampleNS+"USBPorts")), mustID(t, g, rdf.NewInteger(3)), func(s, _, _ rdf.ID) bool {
		rel = append(rel, s)
		return true
	})
	q, err := Parse("PREFIX ex: <http://example.org/products#> SELECT ?m (AVG(?p) AS ?a) WHERE { ?x1 ex:manufacturer ?m . ?x1 ex:price ?p } GROUP BY ?m")
	if err != nil {
		t.Fatal(err)
	}
	prof := NewProfile("query")
	if _, err := ExecSelectTable(context.Background(), g, q, Options{Profile: prof, Extension: &Relation{Var: "x1", IDs: rel}}); err != nil {
		t.Fatal(err)
	}
	tree := prof.Tree()
	if want := "extension ?x1  calls=1 rows=1→" + strconv.Itoa(len(rel)); !strings.Contains(tree, want) {
		t.Errorf("no %q in\n%s", want, tree)
	}
	if strings.Contains(tree, "[hash join]") || strings.Contains(tree, "[cross product]") {
		t.Errorf("a step over the extension builds or crosses:\n%s", tree)
	}
}

func mustID(t *testing.T, g *rdf.Graph, term rdf.Term) rdf.ID {
	t.Helper()
	id, ok := g.TermID(term)
	if !ok {
		t.Fatalf("%v not in the graph", term)
	}
	return id
}
