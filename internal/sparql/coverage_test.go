package sparql

import (
	"fmt"
	"strings"
	"testing"

	"rdfanalytics/internal/rdf"
)

func TestValuesMultiColumn(t *testing.T) {
	g := invoices(t)
	res, err := Select(g, `PREFIX ex: <http://e/>
SELECT ?i ?expected WHERE {
  VALUES (?i ?expected) { (ex:i1 200) (ex:i2 100) (ex:i3 UNDEF) }
  ?i ex:inQuantity ?q .
  FILTER(!BOUND(?expected) || ?q = ?expected)
}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("rows: %s", res)
	}
	// Mismatched row widths error.
	if _, err := Parse(`SELECT ?a WHERE { VALUES (?a ?b) { (1) } }`); err == nil {
		t.Error("short VALUES row accepted")
	}
}

func TestValuesJoinAgainstBound(t *testing.T) {
	g := invoices(t)
	// VALUES after the pattern: acts as a join filter on the bound var.
	res, err := Select(g, `PREFIX ex: <http://e/>
SELECT ?i WHERE { ?i ex:delivers ex:coca . VALUES ?i { ex:i1 ex:i99 } }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Get(0, "i").LocalName() != "i1" {
		t.Fatalf("rows: %s", res)
	}
}

func TestSubqueryWithModifiers(t *testing.T) {
	g := invoices(t)
	res, err := Select(g, `PREFIX ex: <http://e/>
SELECT ?b ?t WHERE {
  { SELECT ?b (SUM(?q) AS ?t) WHERE { ?i ex:takesPlaceAt ?b . ?i ex:inQuantity ?q }
    GROUP BY ?b HAVING (SUM(?q) > 300) ORDER BY DESC(?t) LIMIT 1 OFFSET 0 }
}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows: %s", res)
	}
}

func TestGroupByExprWithAS(t *testing.T) {
	g := invoices(t)
	res, err := Select(g, `PREFIX ex: <http://e/>
SELECT ?m (SUM(?q) AS ?t) WHERE { ?i ex:hasDate ?d . ?i ex:inQuantity ?q }
GROUP BY (MONTH(?d) AS ?m)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("rows: %s", res)
	}
	for _, row := range bindings(res) {
		if row["m"].IsZero() {
			t.Error("named group expression unbound")
		}
	}
}

func TestOrderByVariants(t *testing.T) {
	g := invoices(t)
	for _, src := range []string{
		`PREFIX ex: <http://e/> SELECT ?q WHERE { ?i ex:inQuantity ?q } ORDER BY ASC(?q)`,
		`PREFIX ex: <http://e/> SELECT ?q WHERE { ?i ex:inQuantity ?q } ORDER BY (?q + 0)`,
		`PREFIX ex: <http://e/> SELECT ?q WHERE { ?i ex:inQuantity ?q } ORDER BY ABS(?q)`,
	} {
		res, err := Select(g, src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if v, _ := res.Get(0, "q").Int(); v != 100 {
			t.Errorf("%s: first row %v", src, res.Get(0, "q"))
		}
	}
}

func TestSelectExprWithoutAggregates(t *testing.T) {
	g := invoices(t)
	res, err := Select(g, `PREFIX ex: <http://e/>
SELECT (?q * 2 AS ?dbl) (STR(?i) AS ?label) WHERE { ?i ex:inQuantity ?q } LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range bindings(res) {
		if row["dbl"].IsZero() || row["label"].IsZero() {
			t.Errorf("projection exprs unbound: %v", row)
		}
	}
}

func TestPathBothEndsUnbound(t *testing.T) {
	g := invoices(t)
	res, err := Select(g, `PREFIX ex: <http://e/>
SELECT ?i ?b WHERE { ?i ex:delivers/ex:brand ?b }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 7 {
		t.Fatalf("rows = %d, want 7", res.Len())
	}
	// Inverse-headed path, both unbound.
	res, err = Select(g, `PREFIX ex: <http://e/>
SELECT ?p ?i WHERE { ?p ^ex:delivers ?i }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 7 {
		t.Fatalf("inverse rows = %d", res.Len())
	}
	// Alternation-headed path, both unbound.
	res, err = Select(g, `PREFIX ex: <http://e/>
SELECT ?s ?o WHERE { ?s ex:brand|ex:takesPlaceAt ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 10 { // 3 brand + 7 takesPlaceAt
		t.Fatalf("alt rows = %d", res.Len())
	}
	// Zero-or-more with unbound subject (every node relates to itself).
	res, err = Select(g, `PREFIX ex: <http://e/>
SELECT ?s WHERE { ?s ex:nonexistent* ex:i1 }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("zero-length path missed the reflexive case")
	}
}

func TestPathBoundBothEnds(t *testing.T) {
	g := invoices(t)
	yes, err := Ask(g, `PREFIX ex: <http://e/> ASK { ex:i1 ex:delivers/ex:brand ex:CocaCola }`)
	if err != nil || !yes {
		t.Fatalf("connect: %v %v", yes, err)
	}
	no, err := Ask(g, `PREFIX ex: <http://e/> ASK { ex:i1 ex:delivers/ex:brand ex:PepsiCo }`)
	if err != nil || no {
		t.Fatalf("connect: %v %v", no, err)
	}
}

func TestLexerStringEscapes(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.Triple{
		S: rdf.NewIRI("http://e/s"), P: rdf.NewIRI("http://e/p"),
		O: rdf.NewString("line1\nline2\t\"quoted\""),
	})
	res, err := Select(g, `SELECT ?s WHERE { ?s <http://e/p> "line1\nline2\t\"quoted\"" }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("escaped literal did not match")
	}
	if _, err := Parse(`SELECT ?s WHERE { ?s ?p "bad\z" }`); err == nil {
		t.Error("unknown escape accepted")
	}
}

func TestLexerNumbers(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.Triple{S: rdf.NewIRI("http://e/s"), P: rdf.NewIRI("http://e/p"), O: rdf.NewTyped("1.5e2", rdf.XSDDouble)})
	res, err := Select(g, `SELECT ?s WHERE { ?s <http://e/p> ?v . FILTER(?v = 1.5e2) }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatal("scientific notation mismatch")
	}
	res, err = Select(g, `SELECT ?s WHERE { ?s <http://e/p> ?v . FILTER(?v > -1e1 && ?v < +2e2) }`)
	if err != nil || res.Len() != 1 {
		t.Fatalf("signed numbers: %v, %v", res, err)
	}
}

func TestBlankNodesInQuery(t *testing.T) {
	g := rdf.MustLoadTurtle(`@prefix ex: <http://e/> .
_:b1 ex:p ex:target .
`)
	res, err := Select(g, `SELECT ?o WHERE { _:b1 <http://e/p> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("blank subject query: %s", res)
	}
}

func TestNestedGroupPattern(t *testing.T) {
	g := invoices(t)
	res, err := Select(g, `PREFIX ex: <http://e/>
SELECT ?i WHERE { { ?i ex:delivers ex:coca . { ?i ex:inQuantity 400 } } }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 { // i4, i6
		t.Fatalf("rows = %d", res.Len())
	}
}

func TestTokenString(t *testing.T) {
	toks, err := lex(`SELECT ?x WHERE { <http://e/a> ?p "s" }`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range toks {
		if tok.kind != tokEOF && tok.String() == "" {
			t.Errorf("empty token string for %+v", tok)
		}
	}
	if toks[len(toks)-1].String() != "EOF" {
		t.Error("EOF token string")
	}
}

func TestHasAggregateBranches(t *testing.T) {
	cases := []struct {
		e    Expr
		want bool
	}{
		{ExprUnary{Op: "!", Sub: ExprAggregate{Func: "SUM"}}, true},
		{ExprIn{Left: ExprVar{Name: "x"}, List: []Expr{ExprAggregate{Func: "MAX"}}}, true},
		{ExprIn{Left: ExprAggregate{Func: "MIN"}}, true},
		{ExprCall{Func: "ABS", Args: []Expr{ExprVar{Name: "x"}}}, false},
		{nil, false},
	}
	for _, c := range cases {
		if HasAggregate(c.e) != c.want {
			t.Errorf("HasAggregate(%v) != %v", c.e, c.want)
		}
	}
}

// TestConcurrentQueries: many goroutines querying one graph concurrently
// (the server's situation) produce correct results; run with -race in CI.
func TestConcurrentQueries(t *testing.T) {
	g := invoices(t)
	const workers = 16
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < 30; i++ {
				res, err := Select(g, `PREFIX ex: <http://e/>
SELECT ?b (SUM(?q) AS ?t) WHERE { ?i ex:takesPlaceAt ?b . ?i ex:inQuantity ?q } GROUP BY ?b`)
				if err != nil {
					errs <- err
					return
				}
				if res.Len() != 3 {
					errs <- fmt.Errorf("worker %d: %d rows", w, res.Len())
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestProjectionStarSkipsAnonVars(t *testing.T) {
	g := invoices(t)
	res, err := Select(g, `PREFIX ex: <http://e/>
SELECT * WHERE { ?i ex:inQuantity ?q . FILTER(?q > 350) }`)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Vars {
		if strings.HasPrefix(v, "_anon") {
			t.Errorf("anonymous variable %q leaked into star projection", v)
		}
	}
}
