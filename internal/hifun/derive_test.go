package hifun

import (
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
)

// TestDeriveContextConstruct flattens a path into a direct attribute via
// CONSTRUCT and analyzes the derived dataset (the §4.1.2 transformation).
func TestDeriveContextConstruct(t *testing.T) {
	src := datagen.SmallInvoices()
	ctx, err := DeriveContext(src, `PREFIX ex: <`+datagen.InvoicesNS+`>
CONSTRUCT {
  ?i ex:brand ?b .
  ?i ex:inQuantity ?q .
} WHERE {
  ?i ex:delivers/ex:brand ?b .
  ?i ex:inQuantity ?q .
}`, datagen.InvoicesNS)
	if err != nil {
		t.Fatal(err)
	}
	// brand is now a *direct* attribute of invoices: a simple HIFUN query
	// replaces the composition.
	ans, err := ctx.ExecuteText("(brand, inQuantity, SUM)")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"CocaCola": 1300, "PepsiCo": 200}
	if len(ans.Rows()) != 2 {
		t.Fatalf("rows:\n%s", ans)
	}
	for _, row := range ans.Rows() {
		if n, _ := row[1].Int(); n != want[row[0].LocalName()] {
			t.Errorf("%s = %d", row[0].LocalName(), n)
		}
	}
	// The derived answer agrees with the composition over the source.
	direct, err := NewContext(src, datagen.InvoicesNS).ExecuteText("(brand.delivers, inQuantity, SUM)")
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Rows()) != len(ans.Rows()) {
		t.Errorf("derived (%d) and direct (%d) disagree", len(ans.Rows()), len(direct.Rows()))
	}
}

func TestDeriveContextSelect(t *testing.T) {
	src := datagen.SmallInvoices()
	ctx, err := DeriveContextSelect(src, `PREFIX ex: <`+datagen.InvoicesNS+`>
SELECT ?branch ?qty WHERE {
  ?i ex:takesPlaceAt ?branch .
  ?i ex:inQuantity ?qty .
}`, "http://example.org/view#")
	if err != nil {
		t.Fatal(err)
	}
	// 7 rows, each with branch and qty.
	rows := rdf.InstancesOf(ctx.Graph, rdf.NewIRI("http://example.org/view#Row"))
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	ans, err := ctx.ExecuteText("(branch, qty, SUM)")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"branch1": 300, "branch2": 600, "branch3": 600}
	for _, row := range ans.Rows() {
		if n, _ := row[1].Int(); n != want[row[0].LocalName()] {
			t.Errorf("%s = %d\n%s", row[0].LocalName(), n, ans)
		}
	}
}

func TestDeriveContextErrors(t *testing.T) {
	src := datagen.SmallInvoices()
	if _, err := DeriveContext(src, "NOT SPARQL", "x"); err == nil {
		t.Error("bad construct accepted")
	}
	if _, err := DeriveContext(src, "SELECT ?x WHERE { ?x ?p ?o }", "x"); err == nil {
		t.Error("SELECT passed to DeriveContext accepted")
	}
	if _, err := DeriveContextSelect(src, "ASK { ?x ?p ?o }", "x"); err == nil {
		t.Error("ASK passed to DeriveContextSelect accepted")
	}
}
