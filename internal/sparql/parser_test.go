package sparql

import (
	"reflect"
	"strings"
	"testing"

	"rdfanalytics/internal/rdf"
)

func TestParseSimpleSelect(t *testing.T) {
	q := MustParse(`PREFIX ex: <http://ex.org/>
SELECT ?x ?y WHERE { ?x ex:p ?y . }`)
	if q.Form != FormSelect {
		t.Fatal("form")
	}
	if len(q.Select.Items) != 2 || q.Select.Items[0].Var != "x" {
		t.Fatalf("projection: %+v", q.Select.Items)
	}
	if len(q.Where.Elems) != 1 || q.Where.Elems[0].Triple == nil {
		t.Fatalf("where: %+v", q.Where.Elems)
	}
	tp := q.Where.Elems[0].Triple
	if !tp.S.IsVar() || tp.S.Var != "x" {
		t.Errorf("subject: %+v", tp.S)
	}
	if tp.P.Term != rdf.NewIRI("http://ex.org/p") {
		t.Errorf("predicate: %+v", tp.P)
	}
}

func TestParseSelectStarDistinct(t *testing.T) {
	q := MustParse(`SELECT DISTINCT * WHERE { ?s ?p ?o }`)
	if !q.Select.Star || !q.Select.Distinct {
		t.Fatalf("star/distinct: %+v", q.Select)
	}
}

func TestParsePredicateObjectLists(t *testing.T) {
	q := MustParse(`PREFIX ex: <http://e/>
SELECT ?s WHERE { ?s a ex:Laptop ; ex:price ?p ; ex:tag ex:a , ex:b . }`)
	if n := len(q.Where.Elems); n != 4 {
		t.Fatalf("expanded to %d patterns, want 4", n)
	}
	if q.Where.Elems[0].Triple.P.Term.Value != rdf.RDFType {
		t.Error("'a' keyword not expanded to rdf:type")
	}
}

func TestParseAggregatesWithAndWithoutAS(t *testing.T) {
	q := MustParse(`PREFIX ex: <http://e/>
SELECT ?x2 SUM(?x3) (AVG(?x3) AS ?avg) WHERE { ?x1 ex:q ?x3 . ?x1 ex:g ?x2 } GROUP BY ?x2`)
	if len(q.Select.Items) != 3 {
		t.Fatalf("items: %+v", q.Select.Items)
	}
	if q.Select.Items[1].Var != "sum_x3" {
		t.Errorf("auto name = %q, want sum_x3", q.Select.Items[1].Var)
	}
	if q.Select.Items[2].Var != "avg" {
		t.Errorf("AS name = %q", q.Select.Items[2].Var)
	}
	agg, ok := q.Select.Items[1].Expr.(ExprAggregate)
	if !ok || agg.Func != "SUM" {
		t.Errorf("aggregate: %+v", q.Select.Items[1].Expr)
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0].Var != "x2" {
		t.Errorf("group by: %+v", q.GroupBy)
	}
}

func TestParseGroupByDerivedExpression(t *testing.T) {
	q := MustParse(`PREFIX ex: <http://e/>
SELECT (MONTH(?x2) AS ?m) SUM(?x3) WHERE { ?x1 ex:hasDate ?x2 . ?x1 ex:q ?x3 }
GROUP BY MONTH(?x2)`)
	if len(q.GroupBy) != 1 || q.GroupBy[0].Expr == nil {
		t.Fatalf("group by: %+v", q.GroupBy)
	}
	call, ok := q.GroupBy[0].Expr.(ExprCall)
	if !ok || call.Func != "MONTH" {
		t.Errorf("group cond: %+v", q.GroupBy[0].Expr)
	}
}

func TestParseHavingFilterOrderLimit(t *testing.T) {
	q := MustParse(`PREFIX ex: <http://e/>
SELECT ?b (SUM(?q) AS ?total) WHERE {
  ?i ex:takesPlaceAt ?b .
  ?i ex:inQuantity ?q .
  FILTER(?q >= 2)
} GROUP BY ?b
HAVING (SUM(?q) > 1000)
ORDER BY DESC(?total)
LIMIT 10 OFFSET 5`)
	if len(q.Having) != 1 {
		t.Fatalf("having: %+v", q.Having)
	}
	if len(q.OrderBy) != 1 || !q.OrderBy[0].Desc {
		t.Fatalf("order by: %+v", q.OrderBy)
	}
	if q.Limit != 10 || q.Offset != 5 {
		t.Fatalf("limit/offset: %d/%d", q.Limit, q.Offset)
	}
}

func TestParseFilterExpressions(t *testing.T) {
	cases := []string{
		`SELECT ?x WHERE { ?x <http://e/p> ?v . FILTER(?v >= 2) }`,
		`SELECT ?x WHERE { ?x <http://e/p> ?v . FILTER(?v > 1 && ?v < 10) }`,
		`SELECT ?x WHERE { ?x <http://e/p> ?v . FILTER(!BOUND(?v) || ?v = 3) }`,
		`SELECT ?x WHERE { ?x <http://e/p> ?v . FILTER(REGEX(?v, "^a", "i")) }`,
		`SELECT ?x WHERE { ?x <http://e/p> ?v . FILTER(?v IN (1, 2, 3)) }`,
		`SELECT ?x WHERE { ?x <http://e/p> ?v . FILTER(?v NOT IN (1)) }`,
		`SELECT ?x WHERE { ?x <http://e/p> ?v . FILTER EXISTS { ?x <http://e/q> ?w } }`,
		`SELECT ?x WHERE { ?x <http://e/p> ?v . FILTER NOT EXISTS { ?x <http://e/q> ?w } }`,
		`SELECT ?x WHERE { ?x <http://e/p> ?v . FILTER(xsd:integer(?v) = 2) }`,
		`SELECT ?x WHERE { ?x <http://e/rd> ?rd . FILTER ( ?rd >= "2021-01-01T00:00:00"^^xsd:dateTime && ?rd <= "2021-12-31T00:00:00"^^xsd:dateTime) }`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err != nil {
			t.Errorf("parse %q: %v", src, err)
		}
	}
}

func TestParseOptionalUnionMinusBindValues(t *testing.T) {
	q := MustParse(`PREFIX ex: <http://e/>
SELECT * WHERE {
  ?s ex:p ?o .
  OPTIONAL { ?s ex:q ?w }
  { ?s ex:r ex:a } UNION { ?s ex:r ex:b }
  MINUS { ?s ex:bad true }
  BIND(?o + 1 AS ?o1)
  VALUES ?z { ex:v1 ex:v2 }
}`)
	var haveOpt, haveUnion, haveMinus, haveBind, haveValues bool
	for _, e := range q.Where.Elems {
		switch {
		case e.Optional != nil:
			haveOpt = true
		case e.Union != nil:
			haveUnion = true
			if len(e.Union.Alternatives) != 2 {
				t.Errorf("union alternatives: %d", len(e.Union.Alternatives))
			}
		case e.Minus != nil:
			haveMinus = true
		case e.Bind != nil:
			haveBind = true
		case e.Values != nil:
			haveValues = true
		}
	}
	if !haveOpt || !haveUnion || !haveMinus || !haveBind || !haveValues {
		t.Fatalf("missing clauses: opt=%v union=%v minus=%v bind=%v values=%v",
			haveOpt, haveUnion, haveMinus, haveBind, haveValues)
	}
}

func TestParseSubquery(t *testing.T) {
	q := MustParse(`PREFIX ex: <http://e/>
SELECT ?b ?avg WHERE {
  { SELECT ?b (AVG(?p) AS ?avg) WHERE { ?x ex:at ?b . ?x ex:price ?p } GROUP BY ?b }
  FILTER(?avg > 100)
}`)
	found := false
	for _, e := range q.Where.Elems {
		if e.SubQuery != nil {
			found = true
			if len(e.SubQuery.GroupBy) != 1 {
				t.Error("subquery group by lost")
			}
		}
	}
	if !found {
		t.Fatal("subquery not parsed")
	}
}

func TestParsePropertyPaths(t *testing.T) {
	q := MustParse(`PREFIX ex: <http://e/>
SELECT ?x WHERE { ?x ex:manufacturer/ex:origin ex:USA . }`)
	tp := q.Where.Elems[0].Triple
	if tp.Path == nil {
		t.Fatal("path not recognized")
	}
	seq, ok := tp.Path.(PathSeq)
	if !ok {
		t.Fatalf("path type %T", tp.Path)
	}
	if seq.Left.(PathIRI).IRI.Value != "http://e/manufacturer" {
		t.Errorf("left: %v", seq.Left)
	}
	// Inverse, alternative and closure modifiers.
	for _, src := range []string{
		`SELECT ?x WHERE { ?x ^<http://e/p> ?y }`,
		`SELECT ?x WHERE { ?x <http://e/p>|<http://e/q> ?y }`,
		`SELECT ?x WHERE { ?x <http://e/p>+ ?y }`,
		`SELECT ?x WHERE { ?x <http://e/p>* ?y }`,
		`SELECT ?x WHERE { ?x (<http://e/p>/<http://e/q>)? ?y }`,
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("parse %q: %v", src, err)
		}
	}
}

func TestParseConstructAndAsk(t *testing.T) {
	q := MustParse(`PREFIX ex: <http://e/>
CONSTRUCT { ?s ex:flat ?v } WHERE { ?s ex:a/ex:b ?v }`)
	if q.Form != FormConstruct || len(q.Template) != 1 {
		t.Fatalf("construct: %+v", q)
	}
	q2 := MustParse(`ASK { <http://e/s> <http://e/p> 1 }`)
	if q2.Form != FormAsk {
		t.Fatal("ask form")
	}
}

func TestParsePaperFig13Query(t *testing.T) {
	// The running-example query of Fig 1.3, verbatim modulo whitespace.
	src := `PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
PREFIX ex: <http://www.ics.forth.gr/example#>
SELECT ?m (AVG(?p) as ?avgprice)
WHERE {
  ?s rdf:type ex:Laptop.
  ?s ex:manufacturer ?m.
  ?m ex:origin ex:USA.
  ?s ex:price ?p.
  ?s ex:USBPorts ?u.
  ?s ex:hardDrive ?hd.
  ?hd rdf:type ex:SSD.
  ?hd ex:manufacturer ?hdm.
  ?hdm ex:origin ?hdmc.
  ?hdmc ex:locatedAt ex:Asia.
  FILTER (?u >= 2).
  ?s ex:releaseDate ?rd .
  FILTER ( ?rd >= "2021-01-01T00:00:00"^^xsd:dateTime &&
           ?rd <= "2021-12-31T00:00:00"^^xsd:dateTime)
} GROUP BY ?m`
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("paper query failed to parse: %v", err)
	}
	nTriples := 0
	nFilters := 0
	for _, e := range q.Where.Elems {
		if e.Triple != nil {
			nTriples++
		}
		if e.Filter != nil {
			nFilters++
		}
	}
	if nTriples != 11 || nFilters != 2 {
		t.Errorf("triples=%d filters=%d, want 11/2", nTriples, nFilters)
	}
}

func TestParseErrorsPositions(t *testing.T) {
	bad := []string{
		`SELECT WHERE { ?s ?p ?o }`,       // missing projection
		`SELECT ?s { ?s ?p }`,             // incomplete triple
		`SELECT ?s WHERE { ?s ?p ?o `,     // unclosed group
		`SELECT ?s WHERE { ?s foo:p ?o }`, // undefined prefix
		`SELECT ?s WHERE { ?s ?p ?o } GROUP BY`,
		`SELECT ?s WHERE { ?s ?p ?o } HAVING ?x`,
		`FOO ?s WHERE { ?s ?p ?o }`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestParseTrailingGarbage(t *testing.T) {
	if _, err := Parse(`SELECT ?s WHERE { ?s ?p ?o } LIMIT 5 }`); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestExprStringRoundTrip(t *testing.T) {
	// String forms must themselves re-parse inside a FILTER.
	exprs := []string{
		`(?a + ?b)`,
		`(?a >= 2)`,
		`((?a > 1) && (?a < 10))`,
		`MONTH(?d)`,
	}
	for _, e := range exprs {
		src := `SELECT ?a WHERE { ?a <http://e/p> ?b . FILTER(` + e + `) }`
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		var f Expr
		for _, el := range q.Where.Elems {
			if el.Filter != nil {
				f = el.Filter
			}
		}
		if f == nil {
			t.Fatalf("no filter in %q", src)
		}
		src2 := `SELECT ?a WHERE { ?a <http://e/p> ?b . FILTER(` + f.String() + `) }`
		if _, err := Parse(src2); err != nil {
			t.Errorf("re-parse of %q failed: %v", f.String(), err)
		}
	}
}

func TestHasAggregate(t *testing.T) {
	q := MustParse(`SELECT (SUM(?x) + 1 AS ?y) WHERE { ?s <http://e/p> ?x }`)
	if !HasAggregate(q.Select.Items[0].Expr) {
		t.Error("aggregate inside arithmetic not detected")
	}
	q2 := MustParse(`SELECT (?x + 1 AS ?y) WHERE { ?s <http://e/p> ?x }`)
	if HasAggregate(q2.Select.Items[0].Expr) {
		t.Error("false positive aggregate detection")
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{
		"SELECT ?x WHERE { ?x <http://e/p> \"unterminated }",
		"SELECT ?x WHERE { ?x & ?y }",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected lexer error for %q", src)
		}
	}
}

func TestParseKeywordCaseInsensitive(t *testing.T) {
	if _, err := Parse(`select ?x where { ?x a <http://e/C> } group by ?x`); err != nil {
		t.Fatalf("lowercase keywords: %v", err)
	}
}

// parseBenchQuery is the text BenchmarkParse parses and
// TestQueryAllocBudgets holds to its allocation budget.
const parseBenchQuery = `PREFIX ex: <http://e/>
SELECT ?x2 ?x5 (SUM(?x3) AS ?t) WHERE {
  ?x1 ex:takesPlaceAt ?x2 .
  ?x1 ex:inQuantity ?x3 .
  ?x1 ex:delivers ?x4 .
  ?x4 ex:brand ?x5 .
  FILTER(?x3 >= 2)
} GROUP BY ?x2 ?x5 HAVING (SUM(?x3) > 1000)`

func BenchmarkParse(b *testing.B) {
	b.SetBytes(int64(len(parseBenchQuery)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Parse(parseBenchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = strings.TrimSpace

// TestParseAdditiveSignedLiteral: a signed number right after an operand is
// the + or - operator and an unsigned number, and a following * or / binds
// to that number (SPARQL 1.1 grammar rule [116]); the lexer still reads +1
// as one number token.
func TestParseAdditiveSignedLiteral(t *testing.T) {
	num := func(s string) Expr { return ExprTerm{Term: rdf.NewTyped(s, rdf.XSDInteger)} }
	a := ExprVar{Name: "a"}
	for src, want := range map[string]Expr{
		"?a+1*2":  ExprBinary{Op: "+", Left: a, Right: ExprBinary{Op: "*", Left: num("1"), Right: num("2")}},
		"?a-1/2":  ExprBinary{Op: "-", Left: a, Right: ExprBinary{Op: "/", Left: num("1"), Right: num("2")}},
		"?a -1":   ExprBinary{Op: "-", Left: a, Right: num("1")},
		"?a - -1": ExprBinary{Op: "-", Left: a, Right: num("-1")},
		"-1+?a":   ExprBinary{Op: "+", Left: num("-1"), Right: a},
	} {
		q, err := Parse(`SELECT ?x WHERE { ?s ?p ?a BIND(` + src + ` AS ?x) }`)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got := q.Where.Elems[1].Bind.Expr; !reflect.DeepEqual(got, want) {
			t.Errorf("%s parses as %s, want %s", src, got, want)
		}
	}
	if toks, _ := lex("?a+1"); len(toks) != 3 || toks[1].kind != tokNumber || toks[1].text != "+1" {
		t.Errorf("lex(?a+1) = %v, want ?a, the number +1, EOF", toks)
	}
}

// TestBaseResolvesRelativeIRIs: BASE resolves a relative IRI as RFC 3986
// does, not by appending it — under BASE <http://ex.org/a/b>, <p> once read
// http://ex.org/a/bp and <../y> http://ex.org/a/b../y.
func TestBaseResolvesRelativeIRIs(t *testing.T) {
	q := MustParse(`BASE <http://ex.org/a/b> SELECT ?o WHERE { <p> <../y> ?o }`)
	tp := q.Where.Elems[0].Triple
	if tp.S.Term.Value != "http://ex.org/a/p" || tp.P.Term.Value != "http://ex.org/y" {
		t.Errorf("resolved to %s and %s, want http://ex.org/a/p and http://ex.org/y", tp.S.Term.Value, tp.P.Term.Value)
	}
}

// TestPrologueResolvesAgainstBase: a query and an update read one prologue,
// and a PREFIX or BASE IRI in it resolves against the BASE declared before
// it, as Turtle's directives do.
func TestPrologueResolvesAgainstBase(t *testing.T) {
	for _, c := range []struct{ prologue, term, want string }{
		{`BASE <http://ex.org/a/> PREFIX p: <b/>`, `p:x`, "http://ex.org/a/b/x"},
		{`BASE <http://ex.org/a/> BASE <c/>`, `<>`, "http://ex.org/a/c/"},
	} {
		q, err := Parse(c.prologue + ` SELECT ?o WHERE { ` + c.term + ` ?p ?o }`)
		if err != nil {
			t.Fatalf("query after %q: %v", c.prologue, err)
		}
		if got := q.Where.Elems[0].Triple.S.Term.Value; got != c.want {
			t.Errorf("query after %q: %s reads %s, want %s", c.prologue, c.term, got, c.want)
		}
		u, err := ParseUpdate(c.prologue + ` INSERT DATA { ` + c.term + ` <http://ex.org/p> "v" }`)
		if err != nil {
			t.Fatalf("update after %q: %v", c.prologue, err)
		}
		if got := u.InsertTempl[0].S.Term.Value; got != c.want {
			t.Errorf("update after %q: %s reads %s, want %s", c.prologue, c.term, got, c.want)
		}
	}
}
