package hifun

import (
	"strings"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/sparql"
)

// TestTranslatedPatternsOrderByNonProjected is the end-to-end regression for
// ORDER BY running after projection: it reuses the exact triple patterns the
// HIFUN translator emits for (hasDate, inQuantity, MIN) to list the detailed
// invoice extension ordered by the date attribute — which is NOT projected.
// Before the fix the date variable was already projected away when the sort
// ran, so the rows came back in match order instead of date order.
func TestTranslatedPatternsOrderByNonProjected(t *testing.T) {
	g := datagen.SmallInvoices()
	c := NewContext(g, datagen.InvoicesNS).WithRoot(rdf.NewIRI(datagen.InvoicesNS + "Invoice"))
	hq, err := Parse("(hasDate, inQuantity, MIN)", datagen.InvoicesNS)
	if err != nil {
		t.Fatal(err)
	}
	spq, err := c.Translator().Translate(hq)
	if err != nil {
		t.Fatal(err)
	}
	// Lift the WHERE block out of the translated query: ?x1 is the invoice,
	// ?x2 the date (grouping attribute), ?x3 the quantity (measure).
	open := strings.Index(spq, "WHERE {")
	close := strings.LastIndex(spq, "}")
	if open < 0 || close <= open {
		t.Fatalf("unexpected translation shape:\n%s", spq)
	}
	patterns := spq[open+len("WHERE {") : close]
	listing := "SELECT ?x1 ?x3 WHERE {" + patterns + "} ORDER BY ?x2 ?x1"
	q, err := sparql.Parse(listing)
	if err != nil {
		t.Fatalf("parse %q: %v", listing, err)
	}
	res, err := sparql.ExecSelect(g, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Vars {
		if v == "x2" {
			t.Fatalf("sort key ?x2 leaked into the projection: %v", res.Vars)
		}
	}
	want := []string{"invoice1", "invoice2", "invoice7", "invoice3", "invoice4", "invoice5", "invoice6"}
	if len(res.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d\nquery:\n%s", len(res.Rows), len(want), listing)
	}
	for i, w := range want {
		if got := res.Get(i, "x1").LocalName(); got != w {
			t.Fatalf("row %d = %s, want %s (date order broken)", i, got, w)
		}
	}
}
