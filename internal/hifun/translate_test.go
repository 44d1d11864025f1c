package hifun

import (
	"strings"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/sparql"
)

func invCtx(t testing.TB) *Context {
	t.Helper()
	return NewContext(datagen.SmallInvoices(), datagen.InvoicesNS)
}

func mustTranslate(t *testing.T, c *Context, src string) string {
	t.Helper()
	q, err := Parse(src, c.NS)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	out, err := c.Translator().Translate(q)
	if err != nil {
		t.Fatalf("translate %q: %v", src, err)
	}
	if _, err := sparql.Parse(out); err != nil {
		t.Fatalf("generated SPARQL invalid for %q: %v\n%s", src, err, out)
	}
	return out
}

// TestTranslateSimple is §4.2.1: (takesPlaceAt, inQuantity, SUM).
func TestTranslateSimple(t *testing.T) {
	c := invCtx(t)
	out := mustTranslate(t, c, "(takesPlaceAt, inQuantity, SUM)")
	for _, want := range []string{
		"?x1 <" + c.NS + "takesPlaceAt> ?x2 .",
		"?x1 <" + c.NS + "inQuantity> ?x3 .",
		"GROUP BY ?x2",
		"SUM(?x3)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "HAVING") {
		t.Error("unexpected HAVING")
	}
}

// TestTranslateURIRestriction is §4.2.2: restriction to branch1 becomes a
// triple pattern, not a FILTER.
func TestTranslateURIRestriction(t *testing.T) {
	c := invCtx(t)
	out := mustTranslate(t, c, "(takesPlaceAt/branch1, inQuantity, SUM)")
	if !strings.Contains(out, "?x1 <"+c.NS+"takesPlaceAt> <"+c.NS+"branch1> .") {
		t.Errorf("URI restriction not a triple pattern:\n%s", out)
	}
	if strings.Contains(out, "FILTER") {
		t.Errorf("URI restriction must not produce FILTER:\n%s", out)
	}
}

// TestTranslateLiteralRestriction is §4.2.2: FILTER for literal values.
func TestTranslateLiteralRestriction(t *testing.T) {
	c := invCtx(t)
	out := mustTranslate(t, c, "(takesPlaceAt, inQuantity/>=1, SUM)")
	if !strings.Contains(out, "FILTER((?x3 >= 1))") {
		t.Errorf("literal restriction missing FILTER:\n%s", out)
	}
}

// TestTranslateHaving is §4.2.3: result restriction becomes HAVING.
func TestTranslateHaving(t *testing.T) {
	c := invCtx(t)
	out := mustTranslate(t, c, "(takesPlaceAt, inQuantity, SUM/>1000)")
	if !strings.Contains(out, "HAVING (SUM(?x3) > 1000)") {
		t.Errorf("HAVING missing:\n%s", out)
	}
}

// TestTranslateComposition is §4.2.4: (brand∘delivers, inQuantity, SUM).
func TestTranslateComposition(t *testing.T) {
	c := invCtx(t)
	out := mustTranslate(t, c, "(brand∘delivers, inQuantity, SUM)")
	for _, want := range []string{
		"?x1 <" + c.NS + "delivers> ?x2 .",
		"?x2 <" + c.NS + "brand> ?x3 .",
		"GROUP BY ?x3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestTranslateDerived is §4.2.4: derived attribute month∘hasDate.
func TestTranslateDerived(t *testing.T) {
	c := invCtx(t)
	out := mustTranslate(t, c, "(month.hasDate, inQuantity, SUM)")
	if !strings.Contains(out, "MONTH(?x2)") {
		t.Errorf("derived expression missing:\n%s", out)
	}
	if !strings.Contains(out, "GROUP BY MONTH(?x2)") {
		t.Errorf("derived GROUP BY missing:\n%s", out)
	}
}

// TestTranslatePairing is §4.2.4: pairing joins on the shared root ?x1.
func TestTranslatePairing(t *testing.T) {
	c := invCtx(t)
	out := mustTranslate(t, c, "(takesPlaceAt & delivers, inQuantity, SUM)")
	for _, want := range []string{
		"?x1 <" + c.NS + "takesPlaceAt> ?x2 .",
		"?x1 <" + c.NS + "delivers> ?x3 .",
		"GROUP BY ?x2 ?x3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestTranslateFullExample is the §4.2.5 worked example.
func TestTranslateFullExample(t *testing.T) {
	c := invCtx(t)
	out := mustTranslate(t, c,
		"(takesPlaceAt & (brand.delivers)/month.hasDate=1, inQuantity/>=2, SUM/>1000)")
	for _, want := range []string{
		"takesPlaceAt> ?x2",
		"delivers>",
		"brand>",
		"MONTH(",
		">= 2",
		"HAVING (SUM(",
		"> 1000)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestTranslateEmptyGroupingAndIdent covers Examples 1–2 of §5.1.
func TestTranslateEmptyGroupingAndIdent(t *testing.T) {
	c := NewContext(datagen.SmallProducts(), datagen.ExampleNS)
	// (ε, price, AVG): no GROUP BY.
	out := mustTranslate(t, c, "(ε, price, AVG)")
	if strings.Contains(out, "GROUP BY") {
		t.Errorf("ε grouping must not GROUP BY:\n%s", out)
	}
	if !strings.Contains(out, "AVG(?x2)") {
		t.Errorf("AVG missing:\n%s", out)
	}
	// (g, ID, COUNT): counts the root variable.
	out = mustTranslate(t, c, "(origin.manufacturer, ID, COUNT)")
	if !strings.Contains(out, "COUNT(?x1)") {
		t.Errorf("identity measure must count ?x1:\n%s", out)
	}
}

func TestTranslateRootClass(t *testing.T) {
	c := NewContext(datagen.SmallProducts(), datagen.ExampleNS).
		WithRoot(rdf.NewIRI(datagen.ExampleNS + "Laptop"))
	out := mustTranslate(t, c, "(manufacturer, price, AVG)")
	if !strings.Contains(out, "?x1 <"+rdf.RDFType+"> <"+datagen.ExampleNS+"Laptop> .") {
		t.Errorf("root class pattern missing:\n%s", out)
	}
}

func TestTranslateInverseProperty(t *testing.T) {
	c := NewContext(datagen.SmallProducts(), datagen.ExampleNS).
		WithRoot(rdf.NewIRI(datagen.ExampleNS + "Company"))
	out := mustTranslate(t, c, "(^manufacturer, size, AVG)")
	// Inverse: the new variable is the *subject*.
	if !strings.Contains(out, "?x2 <"+datagen.ExampleNS+"manufacturer> ?x1 .") {
		t.Errorf("inverse pattern wrong:\n%s", out)
	}
}

func TestTranslateMultipleOps(t *testing.T) {
	c := NewContext(datagen.SmallProducts(), datagen.ExampleNS)
	out := mustTranslate(t, c, "(manufacturer, price, AVG; SUM; MAX)")
	for _, want := range []string{"AVG(?x3)", "SUM(?x3)", "MAX(?x3)"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestTranslateValueSetRestriction(t *testing.T) {
	c := invCtx(t)
	q := MustParse("(takesPlaceAt, inQuantity, SUM)", c.NS)
	q.GroupRestrs = []Restriction{{
		Path:   Prop{Name: "takesPlaceAt"},
		Values: []rdf.Term{rdf.NewIRI(c.NS + "branch1"), rdf.NewIRI(c.NS + "branch2")},
	}}
	out, err := c.Translator().Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "IN (<"+c.NS+"branch1>, <"+c.NS+"branch2>))") {
		t.Errorf("IN filter missing:\n%s", out)
	}
	if _, err := sparql.Parse(out); err != nil {
		t.Fatalf("invalid SPARQL: %v\n%s", err, out)
	}
}

func TestTranslateErrors(t *testing.T) {
	c := invCtx(t)
	// No operation.
	if _, err := c.Translator().Translate(&Query{Grouping: Prop{Name: "a"}}); err == nil {
		t.Error("missing op accepted")
	}
	// Traversal after derived attribute is impossible.
	q := &Query{
		Grouping:  Comp{Outer: Prop{Name: "p"}, Inner: Derived{Func: "YEAR", Sub: Prop{Name: "d"}}},
		Measuring: Prop{Name: "q"},
		Ops:       []Operation{{Op: OpSum}},
	}
	if _, err := c.Translator().Translate(q); err == nil {
		t.Error("composition over derived accepted")
	}
}

// TestProposition2Soundness checks the translation's semantics against a
// hand-evaluated reference on the paper's own dataset (Proposition 2): the
// translated query's answer equals the three-step HIFUN evaluation
// (grouping, measuring, reduction) computed directly on the graph.
func TestProposition2Soundness(t *testing.T) {
	c := invCtx(t)
	ans, err := c.ExecuteText("(takesPlaceAt, inQuantity, SUM)")
	if err != nil {
		t.Fatal(err)
	}
	// Direct evaluation: group invoices by branch, sum quantities.
	direct := map[rdf.Term]int64{}
	c.Graph.Match(rdf.Any, rdf.NewIRI(c.NS+"takesPlaceAt"), rdf.Any, func(tr rdf.Triple) bool {
		q := c.Graph.Object(tr.S, rdf.NewIRI(c.NS+"inQuantity"))
		n, _ := q.Int()
		direct[tr.O] += n
		return true
	})
	if len(ans.Rows()) != len(direct) {
		t.Fatalf("groups: %d vs %d", len(ans.Rows()), len(direct))
	}
	for _, row := range ans.Rows() {
		want := direct[row[0]]
		got, _ := row[1].Int()
		if got != want {
			t.Errorf("%v: %d, want %d", row[0], got, want)
		}
	}
}

func BenchmarkTranslate(b *testing.B) {
	c := NewContext(datagen.SmallInvoices(), datagen.InvoicesNS)
	q := MustParse("(takesPlaceAt & (brand.delivers)/month.hasDate=1, inQuantity/>=2, SUM/>1000)", c.NS)
	tr := c.Translator()
	b.ResetTimer()
	for b.Loop() {
		if _, err := tr.Translate(q); err != nil {
			b.Fatal(err)
		}
	}
}
