package sparql

import (
	"context"
	"errors"
	"strings"
	"testing"

	"rdfanalytics/internal/rdf"
)

// evalStr parses `expr` as a SPARQL expression (via a FILTER wrapper) and
// evaluates it against the binding.
func evalStr(t *testing.T, expr string, b Binding) (rdf.Term, error) {
	t.Helper()
	q, err := Parse(`SELECT ?x WHERE { ?x ?p ?o . FILTER(` + expr + `) }`)
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	var f Expr
	for _, e := range q.Where.Elems {
		if e.Filter != nil {
			f = e.Filter
		}
	}
	ev := newEvaluator(context.Background(), rdf.NewGraph(), Options{})
	ev.sc = &scope{slots: map[string]int{}}
	for v := range b {
		ev.sc.add(v)
	}
	return exprEnv{ev: ev}.evalExpr(f, ev.bindingRow(b))
}

func TestBuiltinFunctions(t *testing.T) {
	b := Binding{
		"s":    rdf.NewString("Hello World"),
		"n":    rdf.NewInteger(-7),
		"f":    rdf.NewDecimal(2.5),
		"d":    rdf.NewTyped("2021-06-10T13:45:30", rdf.XSDDateTime),
		"iri":  rdf.NewIRI("http://ex.org/thing"),
		"lang": rdf.NewLangString("bonjour", "fr"),
		"bn":   rdf.NewBlank("b0"),
	}
	cases := []struct {
		expr string
		want string // expected term value ("" with wantErr)
	}{
		{`STR(?iri)`, "http://ex.org/thing"},
		{`STR(?n)`, "-7"},
		{`LANG(?lang)`, "fr"},
		{`LANG(?s)`, ""},
		{`LANGMATCHES(LANG(?lang), "fr")`, "true"},
		{`LANGMATCHES(LANG(?lang), "*")`, "true"},
		{`LANGMATCHES(LANG(?lang), "en")`, "false"},
		{`DATATYPE(?n)`, rdf.XSDInteger},
		{`DATATYPE(?s)`, rdf.XSDString},
		{`ISIRI(?iri)`, "true"},
		{`ISIRI(?s)`, "false"},
		{`ISBLANK(?bn)`, "true"},
		{`ISLITERAL(?s)`, "true"},
		{`ISNUMERIC(?n)`, "true"},
		{`ISNUMERIC(?s)`, "false"},
		{`SAMETERM(?n, ?n)`, "true"},
		{`SAMETERM(?n, ?f)`, "false"},
		{`ABS(?n)`, "7"},
		{`CEIL(?f)`, "3"},
		{`FLOOR(?f)`, "2"},
		{`ROUND(?f)`, "3"},
		{`STRLEN(?s)`, "11"},
		{`UCASE(?s)`, "HELLO WORLD"},
		{`LCASE(?s)`, "hello world"},
		{`CONCAT(?s, "!", STR(?n))`, "Hello World!-7"},
		{`CONTAINS(?s, "World")`, "true"},
		{`CONTAINS(?s, "world")`, "false"},
		{`STRSTARTS(?s, "Hello")`, "true"},
		{`STRENDS(?s, "World")`, "true"},
		{`STRBEFORE(?s, " ")`, "Hello"},
		{`STRAFTER(?s, " ")`, "World"},
		{`STRBEFORE(?s, "zzz")`, ""},
		{`SUBSTR(?s, 7)`, "World"},
		{`SUBSTR(?s, 1, 5)`, "Hello"},
		{`REPLACE(?s, "o", "0")`, "Hell0 W0rld"},
		{`REGEX(?s, "^Hello")`, "true"},
		{`REGEX(?s, "^hello", "i")`, "true"},
		{`REGEX(?s, "^World")`, "false"},
		{`YEAR(?d)`, "2021"},
		{`MONTH(?d)`, "6"},
		{`DAY(?d)`, "10"},
		{`HOURS(?d)`, "13"},
		{`MINUTES(?d)`, "45"},
		{`SECONDS(?d)`, "30"},
		{`IRI(STR(?iri))`, "http://ex.org/thing"},
		{`STRLANG("hi", "en")`, "hi"},
		{`STRDT("5", STR(DATATYPE(?n)))`, "5"},
		{`ENCODE_FOR_URI("a b/c")`, "a%20b%2Fc"},
		{`IF(?n < 0, "neg", "pos")`, "neg"},
		{`IF(?f > 0, "pos", "neg")`, "pos"},
		{`COALESCE(?undefined, ?s)`, "Hello World"},
		{`BOUND(?s)`, "true"},
		{`BOUND(?undefined)`, "false"},
	}
	for _, c := range cases {
		got, err := evalStr(t, c.expr, b)
		if err != nil {
			t.Errorf("%s: error %v", c.expr, err)
			continue
		}
		if got.Value != c.want {
			t.Errorf("%s = %q, want %q", c.expr, got.Value, c.want)
		}
	}
}

func TestBuiltinErrors(t *testing.T) {
	b := Binding{
		"s":   rdf.NewString("str"),
		"iri": rdf.NewIRI("http://e/x"),
	}
	for _, expr := range []string{
		`YEAR(?s)`,          // non-temporal
		`ABS(?s)`,           // non-numeric
		`DATATYPE(?iri)`,    // non-literal
		`?undefined + 1`,    // unbound var
		`?s + 1`,            // string arithmetic
		`1 / 0`,             // division by zero
		`REGEX(?s, "[bad")`, // malformed regex
		`?iri < ?s`,         // unorderable
	} {
		if _, err := evalStr(t, expr, b); err == nil {
			t.Errorf("%s: expected evaluation error", expr)
		} else if !errors.Is(err, errEval) {
			t.Errorf("%s: error %v does not wrap errEval", expr, err)
		}
	}
}

func TestArithmeticAndPromotion(t *testing.T) {
	b := Binding{
		"i": rdf.NewInteger(6),
		"j": rdf.NewInteger(4),
		"d": rdf.NewDecimal(0.5),
		"x": rdf.NewDouble(2),
	}
	cases := []struct {
		expr, want, dt string
	}{
		{`?i + ?j`, "10", rdf.XSDInteger},
		{`?i - ?j`, "2", rdf.XSDInteger},
		{`?i * ?j`, "24", rdf.XSDInteger},
		{`?i / ?j`, "1.5", rdf.XSDDecimal}, // integer division yields decimal
		{`?i + ?d`, "6.5", rdf.XSDDecimal},
		{`?i * ?x`, "12", rdf.XSDDouble},
		{`-?i`, "-6", rdf.XSDInteger},
		{`-(?d)`, "-0.5", rdf.XSDDecimal},
	}
	for _, c := range cases {
		got, err := evalStr(t, c.expr, b)
		if err != nil {
			t.Errorf("%s: %v", c.expr, err)
			continue
		}
		if got.Value != c.want || got.Datatype != c.dt {
			t.Errorf("%s = %s^^%s, want %s^^%s", c.expr, got.Value, got.Datatype, c.want, c.dt)
		}
	}
}

func TestComparisonsAcrossTypes(t *testing.T) {
	b := Binding{
		"i":  rdf.NewInteger(5),
		"d":  rdf.NewDecimal(5.0),
		"d2": rdf.NewTyped("2021-01-01", rdf.XSDDate),
		"d3": rdf.NewTyped("2022-01-01", rdf.XSDDate),
		"t":  rdf.NewBool(true),
		"f":  rdf.NewBool(false),
		"s1": rdf.NewString("apple"),
		"s2": rdf.NewString("banana"),
	}
	cases := []struct {
		expr string
		want bool
	}{
		{`?i = ?d`, true}, // numeric value equality across datatypes
		{`?i != ?d`, false},
		{`?i <= 5`, true},
		{`?i > 4.9`, true},
		{`?d2 < ?d3`, true},
		{`?d2 = ?d2`, true},
		{`?f < ?t`, true},
		{`?s1 < ?s2`, true},
		{`?s1 = "apple"`, true},
		{`?i IN (1, 5, 9)`, true},
		{`?i IN (1, 2)`, false},
		{`?i NOT IN (1, 2)`, true},
		{`!(?i = 5)`, false},
	}
	for _, c := range cases {
		got, err := evalStr(t, c.expr, b)
		if err != nil {
			t.Errorf("%s: %v", c.expr, err)
			continue
		}
		v, _ := got.Bool()
		if v != c.want {
			t.Errorf("%s = %v, want %v", c.expr, v, c.want)
		}
	}
}

func TestCasts(t *testing.T) {
	b := Binding{
		"s": rdf.NewString("42"),
		"f": rdf.NewDecimal(3.9),
	}
	cases := []struct {
		expr, want, dt string
	}{
		{`xsd:integer(?s)`, "42", rdf.XSDInteger},
		{`xsd:integer(?f)`, "3", rdf.XSDInteger}, // truncation
		{`xsd:decimal("2.5")`, "2.5", rdf.XSDDecimal},
		{`xsd:double("1e3")`, "1000", rdf.XSDDouble},
		{`xsd:boolean("true")`, "true", rdf.XSDBoolean},
		{`xsd:boolean("1")`, "true", rdf.XSDBoolean},
		{`xsd:string(?f)`, "3.9", rdf.XSDString},
		{`xsd:date("2021-06-10")`, "2021-06-10", rdf.XSDDate},
	}
	for _, c := range cases {
		got, err := evalStr(t, c.expr, b)
		if err != nil {
			t.Errorf("%s: %v", c.expr, err)
			continue
		}
		if got.Value != c.want || got.Datatype != c.dt {
			t.Errorf("%s = %s^^%s, want %s^^%s", c.expr, got.Value, got.Datatype, c.want, c.dt)
		}
	}
	// Invalid casts error.
	for _, expr := range []string{
		`xsd:integer("abc")`, `xsd:boolean("maybe")`, `xsd:date("June")`,
	} {
		if _, err := evalStr(t, expr, b); err == nil {
			t.Errorf("%s: expected cast error", expr)
		}
	}
}

func TestEffectiveBooleanValue(t *testing.T) {
	cases := []struct {
		term    rdf.Term
		want    bool
		wantErr bool
	}{
		{rdf.NewBool(true), true, false},
		{rdf.NewBool(false), false, false},
		{rdf.NewString(""), false, false},
		{rdf.NewString("x"), true, false},
		{rdf.NewInteger(0), false, false},
		{rdf.NewInteger(3), true, false},
		{rdf.NewDecimal(0.0), false, false},
		{rdf.NewLangString("x", "en"), true, false},
		{rdf.NewIRI("http://e/x"), false, true},
		{rdf.NewTyped("junk", rdf.XSDDate), false, true},
		{rdf.NewTyped("notabool", rdf.XSDBoolean), false, true},
	}
	for _, c := range cases {
		got, err := ebv(c.term)
		if c.wantErr {
			if err == nil {
				t.Errorf("ebv(%v): expected error", c.term)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ebv(%v) = %v, %v; want %v", c.term, got, err, c.want)
		}
	}
}

func TestStringLikeKeepsLang(t *testing.T) {
	b := Binding{"l": rdf.NewLangString("Bonjour", "fr")}
	got, err := evalStr(t, `UCASE(?l)`, b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Lang != "fr" || got.Value != "BONJOUR" {
		t.Errorf("UCASE(lang) = %v", got)
	}
}

func TestNestedAggregateExpression(t *testing.T) {
	// Arithmetic over aggregates: (SUM(?q) / COUNT(?q)) equals AVG(?q).
	g := rdf.MustLoadTurtle(`@prefix ex: <http://e/> .
ex:a ex:q 10 . ex:b ex:q 20 . ex:c ex:q 30 .
`)
	res, err := Select(g, `PREFIX ex: <http://e/>
SELECT ((SUM(?q) / COUNT(?q)) AS ?manual) (AVG(?q) AS ?auto)
WHERE { ?s ex:q ?q }`)
	if err != nil {
		t.Fatal(err)
	}
	row := bindings(res)[0]
	m, _ := row["manual"].Float()
	a, _ := row["auto"].Float()
	if m != a || m != 20 {
		t.Errorf("manual=%v auto=%v", row["manual"], row["auto"])
	}
}

func TestHavingWithCompoundCondition(t *testing.T) {
	g := rdf.MustLoadTurtle(`@prefix ex: <http://e/> .
ex:i1 ex:at ex:b1 ; ex:q 100 .
ex:i2 ex:at ex:b1 ; ex:q 200 .
ex:i3 ex:at ex:b2 ; ex:q 50 .
`)
	res, err := Select(g, `PREFIX ex: <http://e/>
SELECT ?b (SUM(?q) AS ?t) WHERE { ?i ex:at ?b . ?i ex:q ?q }
GROUP BY ?b
HAVING (SUM(?q) > 100 && COUNT(?q) >= 2)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Get(0, "b").LocalName() != "b1" {
		t.Fatalf("rows: %s", res)
	}
}

func TestExprStringForms(t *testing.T) {
	// Every AST String() form is non-empty and stable (exercises the
	// display code used in error messages and the UI).
	exprs := []Expr{
		ExprVar{Name: "x"},
		ExprTerm{Term: rdf.NewInteger(3)},
		ExprUnary{Op: "!", Sub: ExprVar{Name: "x"}},
		ExprBinary{Op: "&&", Left: ExprVar{Name: "x"}, Right: ExprVar{Name: "y"}},
		ExprCall{Func: "YEAR", Args: []Expr{ExprVar{Name: "d"}}},
		ExprCall{Func: "http://www.w3.org/2001/XMLSchema#integer", Args: []Expr{ExprVar{Name: "d"}}},
		ExprAggregate{Func: "SUM", Arg: ExprVar{Name: "q"}},
		ExprAggregate{Func: "COUNT", Star: true, Distinct: true},
		ExprAggregate{Func: "GROUP_CONCAT", Arg: ExprVar{Name: "q"}, Separator: ","},
		ExprExists{Pattern: &GroupPattern{}},
		ExprExists{Not: true, Pattern: &GroupPattern{}},
		ExprIn{Left: ExprVar{Name: "x"}, List: []Expr{ExprTerm{Term: rdf.NewInteger(1)}}},
		ExprIn{Not: true, Left: ExprVar{Name: "x"}, List: []Expr{ExprTerm{Term: rdf.NewInteger(1)}}},
	}
	for _, e := range exprs {
		if strings.TrimSpace(e.String()) == "" {
			t.Errorf("%T: empty String()", e)
		}
	}
	// Path String forms.
	paths := []Path{
		PathIRI{IRI: rdf.NewIRI("http://e/p")},
		PathInverse{Sub: PathIRI{IRI: rdf.NewIRI("http://e/p")}},
		PathSeq{Left: PathIRI{IRI: rdf.NewIRI("http://e/p")}, Right: PathIRI{IRI: rdf.NewIRI("http://e/q")}},
		PathAlt{Left: PathIRI{IRI: rdf.NewIRI("http://e/p")}, Right: PathIRI{IRI: rdf.NewIRI("http://e/q")}},
		PathMod{Sub: PathIRI{IRI: rdf.NewIRI("http://e/p")}, Min: 0, Max: -1},
		PathMod{Sub: PathIRI{IRI: rdf.NewIRI("http://e/p")}, Min: 1, Max: -1},
		PathMod{Sub: PathIRI{IRI: rdf.NewIRI("http://e/p")}, Min: 0, Max: 1},
	}
	for _, p := range paths {
		if strings.TrimSpace(p.String()) == "" {
			t.Errorf("%T: empty String()", p)
		}
	}
}

func TestGroupConcatSeparatorAndSample(t *testing.T) {
	g := rdf.MustLoadTurtle(`@prefix ex: <http://e/> .
ex:a ex:tag "x" . ex:a ex:tag "y" . ex:a ex:tag "z" .
`)
	res, err := Select(g, `PREFIX ex: <http://e/>
SELECT (GROUP_CONCAT(?t; SEPARATOR="|") AS ?gc) (SAMPLE(?t) AS ?sm)
WHERE { ?s ex:tag ?t }`)
	if err != nil {
		t.Fatal(err)
	}
	gc := res.Get(0, "gc").Value
	if strings.Count(gc, "|") != 2 {
		t.Errorf("group_concat = %q", gc)
	}
	if res.Get(0, "sm").IsZero() {
		t.Error("sample missing")
	}
}
