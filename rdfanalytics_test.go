package rdfanalytics_test

import (
	"fmt"
	"strings"
	"testing"

	rdfanalytics "rdfanalytics"
)

const facadeTTL = `@prefix ex: <http://e/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
ex:Laptop a rdfs:Class .
ex:l1 a ex:Laptop ; ex:maker ex:A ; ex:price 100 .
ex:l2 a ex:Laptop ; ex:maker ex:A ; ex:price 300 .
ex:l3 a ex:Laptop ; ex:maker ex:B ; ex:price 500 .
`

func TestFacadeEndToEnd(t *testing.T) {
	g, err := rdfanalytics.LoadTurtle(strings.NewReader(facadeTTL))
	if err != nil {
		t.Fatal(err)
	}
	rdfanalytics.Materialize(g)
	s := rdfanalytics.NewSession(g, "http://e/")
	s.ClickClass(rdfanalytics.IRI("http://e/Laptop"))
	s.ClickGroupBy(rdfanalytics.GroupBySpec("http://e/maker"))
	s.ClickAggregate(rdfanalytics.MeasureOf("http://e/price"), rdfanalytics.Op(rdfanalytics.AVG))
	ans, err := s.RunAnalytics()
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) != 2 {
		t.Fatalf("rows:\n%s", ans)
	}
	// Snapshot/restore through the facade.
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := rdfanalytics.RestoreSession(g, snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.State().Ext.Len() != 3 {
		t.Fatalf("restored ext = %d", restored.State().Ext.Len())
	}
}

func TestFacadeSPARQLAndUpdate(t *testing.T) {
	g := rdfanalytics.NewGraph()
	ins, del, err := rdfanalytics.Update(g, `PREFIX ex: <http://e/>
INSERT DATA { ex:a ex:p 1 . ex:b ex:p 2 . }`)
	if err != nil || ins != 2 || del != 0 {
		t.Fatalf("update: %d/%d, %v", ins, del, err)
	}
	res, err := rdfanalytics.Select(g, `SELECT (SUM(?v) AS ?s) WHERE { ?x <http://e/p> ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Get(0, "s").Value != "3" {
		t.Fatalf("sum = %v", res.Get(0, "s"))
	}
	yes, err := rdfanalytics.Ask(g, `ASK { <http://e/a> ?p ?o }`)
	if err != nil || !yes {
		t.Fatalf("ask: %v %v", yes, err)
	}
	out, err := rdfanalytics.Construct(g, `CONSTRUCT { ?x <http://e/q> ?v } WHERE { ?x <http://e/p> ?v }`)
	if err != nil || out.Len() != 2 {
		t.Fatalf("construct: %v %v", out.Len(), err)
	}
}

func TestFacadeHIFUN(t *testing.T) {
	g, _ := rdfanalytics.LoadTurtle(strings.NewReader(facadeTTL))
	ctx := rdfanalytics.NewContext(g, "http://e/")
	q, err := rdfanalytics.ParseHIFUN("(maker, price, SUM)", "http://e/")
	if err != nil {
		t.Fatal(err)
	}
	ans, err := ctx.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) != 2 {
		t.Fatalf("rows:\n%s", ans)
	}
}

// ExampleSession demonstrates the three-click analytics flow.
func ExampleSession() {
	g, _ := rdfanalytics.LoadTurtle(strings.NewReader(facadeTTL))
	rdfanalytics.Materialize(g)
	s := rdfanalytics.NewSession(g, "http://e/")
	s.ClickClass(rdfanalytics.IRI("http://e/Laptop"))
	s.ClickGroupBy(rdfanalytics.GroupBySpec("http://e/maker"))
	s.ClickAggregate(rdfanalytics.MeasureOf("http://e/price"), rdfanalytics.Op(rdfanalytics.SUM))
	ans, _ := s.RunAnalytics()
	for _, row := range ans.Rows {
		fmt.Println(row[0].LocalName(), row[1].Value)
	}
	// Output:
	// A 400
	// B 500
}
