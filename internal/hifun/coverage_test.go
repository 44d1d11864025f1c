package hifun

import (
	"strings"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/sparql"
)

// TestTranslateFixedEndDeepPath: a URI restriction through a multi-hop
// composition fixes the *last* object only (Algorithm 4's URI case).
func TestTranslateFixedEndDeepPath(t *testing.T) {
	c := NewContext(datagen.SmallProducts(), datagen.ExampleNS).
		WithRoot(rdf.NewIRI(datagen.ExampleNS + "Laptop"))
	// Group laptops by manufacturer, restricted to laptops whose
	// hard drive's maker's origin is Singapore.
	q := MustParse("(manufacturer/origin.manufacturer.hardDrive=<"+
		datagen.ExampleNS+"Singapore>, price, AVG)", c.NS)
	out, err := c.Translator().Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "<"+datagen.ExampleNS+"Singapore> .") {
		t.Fatalf("fixed end missing:\n%s", out)
	}
	// And it executes: laptop1 (SSD1 by Maxtor/Singapore) and laptop3
	// (NVMe1 by Maxtor) qualify.
	ans, err := c.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows()) != 2 { // DELL (laptop1), Lenovo (laptop3)
		t.Fatalf("rows:\n%s", ans)
	}
}

// TestTranslateMeasureURIRestriction: an equality restriction with a URI on
// the measure becomes a FILTER on the measure variable.
func TestTranslateMeasureURIRestriction(t *testing.T) {
	c := NewContext(datagen.SmallProducts(), datagen.ExampleNS).
		WithRoot(rdf.NewIRI(datagen.ExampleNS + "Laptop"))
	q := MustParse("(manufacturer, hardDrive, COUNT)", c.NS)
	q.MeasRestrs = []Restriction{{Op: "=", Value: rdf.NewIRI(datagen.ExampleNS + "SSD1")}}
	out, err := c.Translator().Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "= <"+datagen.ExampleNS+"SSD1>") {
		t.Fatalf("URI measure restriction missing:\n%s", out)
	}
	if _, err := sparql.Parse(out); err != nil {
		t.Fatal(err)
	}
}

// TestTranslateMeasureValueSet: a value-set restriction on the measure
// becomes an IN filter.
func TestTranslateMeasureValueSet(t *testing.T) {
	c := invCtx(t)
	q := MustParse("(takesPlaceAt, inQuantity, SUM)", c.NS)
	q.MeasRestrs = []Restriction{{Values: []rdf.Term{rdf.NewInteger(100), rdf.NewInteger(200)}}}
	out, err := c.Translator().Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "IN (100, 200)") {
		t.Fatalf("IN missing:\n%s", out)
	}
	parsed, err := sparql.Parse(out)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sparql.ExecSelect(c.Graph, parsed)
	if err != nil {
		t.Fatal(err)
	}
	// b1: 200+100=300, b2: 200, b3: 100+100=200.
	if res.Len() != 3 {
		t.Fatalf("rows: %s", res)
	}
}

// TestTranslateDerivedMeasure: aggregating a derived measure binds it first.
func TestTranslateDerivedMeasure(t *testing.T) {
	c := invCtx(t)
	ans, err := c.ExecuteText("(takesPlaceAt, month.hasDate, MAX)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ans.SPARQL, "BIND(MONTH(") {
		t.Fatalf("derived measure not bound:\n%s", ans.SPARQL)
	}
	// branch3's latest month is 3 (two March invoices, one January).
	for _, row := range ans.Rows() {
		if row[0].LocalName() == "branch3" {
			if n, _ := row[1].Int(); n != 3 {
				t.Errorf("branch3 max month = %v", row[1])
			}
		}
	}
}

// TestRestrictionStringForms exercises the display forms used by the UI.
func TestRestrictionStringForms(t *testing.T) {
	cases := []struct {
		r    Restriction
		want string
	}{
		{Restriction{Op: ">=", Value: rdf.NewInteger(2)}, ">=2"},
		{Restriction{Path: Prop{Name: "p"}, Op: "=", Value: rdf.NewIRI("http://e/x")}, "p=<http://e/x>"},
		{Restriction{Values: []rdf.Term{rdf.NewInteger(1), rdf.NewInteger(2)}}, "∈{1, 2}"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
	// Operation display.
	op := Operation{Op: OpSum, RestrictOp: ">", RestrictValue: rdf.NewInteger(5)}
	if op.String() != "SUM/>5" {
		t.Errorf("op string = %q", op.String())
	}
	if (Operation{Op: OpCount, Distinct: true}).String() != "COUNT DISTINCT" {
		t.Error("distinct op string")
	}
	// FCO names render.
	for f := FCOValue; f <= FCOPathMaxFreq; f++ {
		if f.String() == "" {
			t.Errorf("FCO %d has empty name", int(f))
		}
	}
	if FCO(42).String() != "fco42" {
		t.Errorf("unknown FCO string = %q", FCO(42).String())
	}
}

// TestParseValueForms covers the literal grammar of the textual syntax.
func TestParseValueForms(t *testing.T) {
	cases := []struct {
		src  string
		want rdf.Term
	}{
		{`(g/="quoted", m, SUM)`, rdf.NewString("quoted")},
		{`(g/=3.25, m, SUM)`, rdf.NewTyped("3.25", rdf.XSDDecimal)},
		{`(g/=true, m, SUM)`, rdf.NewTyped("true", rdf.XSDBoolean)},
		{`(g/=<http://full/iri>, m, SUM)`, rdf.NewIRI("http://full/iri")},
	}
	for _, c := range cases {
		q := MustParse(c.src, ns)
		if q.GroupRestrs[0].Value != c.want {
			t.Errorf("%s: value = %#v, want %#v", c.src, q.GroupRestrs[0].Value, c.want)
		}
	}
}

// TestResolveFullIRIAndURN: attribute names that are already IRIs skip
// namespace resolution.
func TestResolveFullIRIAndURN(t *testing.T) {
	tr := &Translator{NS: "http://ns/"}
	if got := tr.resolve("http://full/p"); got.Value != "http://full/p" {
		t.Errorf("full IRI: %v", got)
	}
	if got := tr.resolve("urn:x:y"); got.Value != "urn:x:y" {
		t.Errorf("urn: %v", got)
	}
	if got := tr.resolve("bare"); got.Value != "http://ns/bare" {
		t.Errorf("bare: %v", got)
	}
	// Custom resolver wins.
	tr2 := &Translator{Resolve: func(n string) rdf.Term { return rdf.NewIRI("x:" + n) }}
	if got := tr2.resolve("p"); got.Value != "x:p" {
		t.Errorf("resolver: %v", got)
	}
}

// TestAggNameDisambiguation: two operations with the same aggregate over
// the same measure get distinct output columns.
func TestAggNameDisambiguation(t *testing.T) {
	c := invCtx(t)
	q := MustParse("(takesPlaceAt, inQuantity, SUM/>0; SUM/>100)", c.NS)
	out, err := c.Translator().Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "?sum_inQuantity)") > 1 {
		t.Fatalf("duplicate column names:\n%s", out)
	}
	if _, err := sparql.Parse(out); err != nil {
		t.Fatalf("invalid SPARQL: %v\n%s", err, out)
	}
}
