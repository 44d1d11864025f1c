package sparql

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"rdfanalytics/internal/rdf"
)

// invoicesTTL is the running example of Fig 4.1: invoices with branch,
// product, date and quantity.
const invoicesTTL = `@prefix ex: <http://e/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:i1 ex:takesPlaceAt ex:branch1 ; ex:inQuantity 200 ; ex:delivers ex:coca ; ex:hasDate "2021-01-10"^^xsd:date .
ex:i2 ex:takesPlaceAt ex:branch1 ; ex:inQuantity 100 ; ex:delivers ex:pepsi ; ex:hasDate "2021-01-20"^^xsd:date .
ex:i3 ex:takesPlaceAt ex:branch2 ; ex:inQuantity 200 ; ex:delivers ex:coca ; ex:hasDate "2021-02-05"^^xsd:date .
ex:i4 ex:takesPlaceAt ex:branch2 ; ex:inQuantity 400 ; ex:delivers ex:coca ; ex:hasDate "2021-02-14"^^xsd:date .
ex:i5 ex:takesPlaceAt ex:branch3 ; ex:inQuantity 100 ; ex:delivers ex:fanta ; ex:hasDate "2021-03-01"^^xsd:date .
ex:i6 ex:takesPlaceAt ex:branch3 ; ex:inQuantity 400 ; ex:delivers ex:coca ; ex:hasDate "2021-03-02"^^xsd:date .
ex:i7 ex:takesPlaceAt ex:branch3 ; ex:inQuantity 100 ; ex:delivers ex:pepsi ; ex:hasDate "2021-01-30"^^xsd:date .
ex:coca ex:brand ex:CocaCola .
ex:fanta ex:brand ex:CocaCola .
ex:pepsi ex:brand ex:PepsiCo .
`

func invoices(t testing.TB) *rdf.Graph {
	t.Helper()
	g, err := rdf.LoadTurtleString(invoicesTTL)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func get(t *testing.T, res *Results, keyVar, keyLocal, valVar string) rdf.Term {
	t.Helper()
	for _, row := range bindings(res) {
		if k, ok := row[keyVar]; ok && k.LocalName() == keyLocal {
			return row[valVar]
		}
	}
	t.Fatalf("no row with ?%s = %s in\n%s", keyVar, keyLocal, res)
	return rdf.Term{}
}

func TestSelectSimpleBGP(t *testing.T) {
	g := invoices(t)
	res, err := Select(g, `PREFIX ex: <http://e/>
SELECT ?i ?b WHERE { ?i ex:takesPlaceAt ?b }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 7 {
		t.Fatalf("rows = %d, want 7", res.Len())
	}
}

func TestSelectJoin(t *testing.T) {
	g := invoices(t)
	res, err := Select(g, `PREFIX ex: <http://e/>
SELECT ?i WHERE { ?i ex:delivers ?p . ?p ex:brand ex:CocaCola }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 5 { // i1,i3,i4,i6 (coca) + i5 (fanta)
		t.Fatalf("rows = %d, want 5\n%s", res.Len(), res)
	}
}

// TestPaperSimpleQuery is §4.2.1: total quantities per branch.
func TestPaperSimpleQuery(t *testing.T) {
	g := invoices(t)
	res, err := Select(g, `PREFIX ex: <http://e/>
SELECT ?x2 SUM(?x3)
WHERE {
  ?x1 ex:takesPlaceAt ?x2 .
  ?x1 ex:inQuantity ?x3 .
}
GROUP BY ?x2`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("groups = %d, want 3\n%s", res.Len(), res)
	}
	want := map[string]int64{"branch1": 300, "branch2": 600, "branch3": 600}
	for b, q := range want {
		v := get(t, res, "x2", b, "sum_x3")
		if n, _ := v.Int(); n != q {
			t.Errorf("SUM for %s = %v, want %d", b, v, q)
		}
	}
}

// TestPaperAttributeRestrictedURI is §4.2.2 (URI restriction).
func TestPaperAttributeRestrictedURI(t *testing.T) {
	g := invoices(t)
	res, err := Select(g, `PREFIX ex: <http://e/>
SELECT ?x2 SUM(?x3)
WHERE {
  ?x1 ex:takesPlaceAt ?x2 .
  ?x1 ex:inQuantity ?x3 .
  ?x1 ex:takesPlaceAt ex:branch1 .
}
GROUP BY ?x2`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("groups = %d, want 1", res.Len())
	}
	if n, _ := res.Get(0, "sum_x3").Int(); n != 300 {
		t.Errorf("sum = %v", res.Get(0, "sum_x3"))
	}
}

// TestPaperAttributeRestrictedLiteral is §4.2.2 (FILTER restriction).
func TestPaperAttributeRestrictedLiteral(t *testing.T) {
	g := invoices(t)
	res, err := Select(g, `PREFIX ex: <http://e/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
SELECT ?x2 SUM(?x3)
WHERE {
  ?x1 ex:takesPlaceAt ?x2 .
  ?x1 ex:inQuantity ?x3 .
  FILTER(?x3 >= xsd:integer("200")) .
}
GROUP BY ?x2`)
	if err != nil {
		t.Fatal(err)
	}
	// branch1: 200; branch2: 200+400; branch3: 400
	want := map[string]int64{"branch1": 200, "branch2": 600, "branch3": 400}
	for b, q := range want {
		if n, _ := get(t, res, "x2", b, "sum_x3").Int(); n != q {
			t.Errorf("sum %s = %d, want %d", b, n, q)
		}
	}
}

// TestPaperResultRestricted is §4.2.3: HAVING.
func TestPaperResultRestricted(t *testing.T) {
	g := invoices(t)
	res, err := Select(g, `PREFIX ex: <http://e/>
SELECT ?x2 SUM(?x3)
WHERE {
  ?x1 ex:takesPlaceAt ?x2 .
  ?x1 ex:inQuantity ?x3 .
}
GROUP BY ?x2
HAVING (SUM(?x3) > 300)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 { // branch2, branch3 (600 each)
		t.Fatalf("groups = %d, want 2\n%s", res.Len(), res)
	}
}

// TestPaperComposition is §4.2.4: totals per brand (composition).
func TestPaperComposition(t *testing.T) {
	g := invoices(t)
	res, err := Select(g, `PREFIX ex: <http://e/>
SELECT ?x3 SUM(?x4)
WHERE {
  ?x1 ex:delivers ?x2 .
  ?x2 ex:brand ?x3 .
  ?x1 ex:inQuantity ?x4 .
}
GROUP BY ?x3`)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"CocaCola": 1300, "PepsiCo": 200}
	for b, q := range want {
		if n, _ := get(t, res, "x3", b, "sum_x4").Int(); n != q {
			t.Errorf("brand %s = %d, want %d", b, n, q)
		}
	}
}

// TestPaperDerivedAttribute is §4.2.4: totals per month (derived attribute).
func TestPaperDerivedAttribute(t *testing.T) {
	g := invoices(t)
	res, err := Select(g, `PREFIX ex: <http://e/>
SELECT (MONTH(?x2) AS ?m) SUM(?x3)
WHERE {
  ?x1 ex:hasDate ?x2 .
  ?x1 ex:inQuantity ?x3 .
}
GROUP BY MONTH(?x2)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("months = %d, want 3\n%s", res.Len(), res)
	}
	want := map[string]int64{"1": 400, "2": 600, "3": 500}
	for m, q := range want {
		if n, _ := get(t, res, "m", m, "sum_x3").Int(); n != q {
			t.Errorf("month %s = %d, want %d", m, n, q)
		}
	}
}

// TestPaperPairing is §4.2.4: totals per branch and product.
func TestPaperPairing(t *testing.T) {
	g := invoices(t)
	res, err := Select(g, `PREFIX ex: <http://e/>
SELECT ?x2 ?x4 SUM(?x3)
WHERE {
  ?x1 ex:takesPlaceAt ?x2 .
  ?x1 ex:inQuantity ?x3 .
  ?x1 ex:delivers ?x4 .
}
GROUP BY ?x2 ?x4`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 6 { // b1:{coca,pepsi} b2:{coca} b3:{fanta,coca,pepsi}
		t.Fatalf("groups = %d, want 6\n%s", res.Len(), res)
	}
}

// TestPaperFullExample is the combined example of §4.2.5.
func TestPaperFullExample(t *testing.T) {
	g := invoices(t)
	res, err := Select(g, `PREFIX ex: <http://e/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
SELECT ?x2 ?x5 SUM(?x3)
WHERE {
  ?x1 ex:takesPlaceAt ?x2 .
  ?x1 ex:inQuantity ?x3 .
  ?x1 ex:delivers ?x4 .
  ?x4 ex:brand ?x5 .
  ?x1 ex:hasDate ?x6 .
  FILTER((MONTH(?x6) = 1) && (?x3 >= xsd:integer("2")))
}
GROUP BY ?x2 ?x5
HAVING (SUM(?x3) > 150)`)
	if err != nil {
		t.Fatal(err)
	}
	// January invoices: i1 (b1, coca 200), i2 (b1, pepsi 100), i7 (b3, pepsi 100).
	// Groups: (b1, CocaCola)=200, (b1, PepsiCo)=100, (b3, PepsiCo)=100.
	// HAVING > 150 leaves only (b1, CocaCola).
	if res.Len() != 1 {
		t.Fatalf("groups = %d, want 1\n%s", res.Len(), res)
	}
	if res.Get(0, "x2").LocalName() != "branch1" || res.Get(0, "x5").LocalName() != "CocaCola" {
		t.Errorf("wrong group: %v", res.Rows[0])
	}
}

func TestAggregatesAll(t *testing.T) {
	g := invoices(t)
	res, err := Select(g, `PREFIX ex: <http://e/>
SELECT (COUNT(?x3) AS ?c) (SUM(?x3) AS ?s) (AVG(?x3) AS ?a)
       (MIN(?x3) AS ?mn) (MAX(?x3) AS ?mx)
       (COUNT(DISTINCT ?x3) AS ?cd)
       (GROUP_CONCAT(DISTINCT ?x3; SEPARATOR=",") AS ?gc)
       (SAMPLE(?x3) AS ?sm)
WHERE { ?x1 ex:inQuantity ?x3 }`)
	if err != nil {
		t.Fatal(err)
	}
	row := bindings(res)[0]
	checks := map[string]string{
		"c": "7", "s": "1500", "mn": "100", "mx": "400", "cd": "3",
	}
	for v, want := range checks {
		if row[v].Value != want {
			t.Errorf("?%s = %q, want %q", v, row[v].Value, want)
		}
	}
	if f, _ := row["a"].Float(); f < 214.2 || f > 214.3 {
		t.Errorf("avg = %v", row["a"])
	}
	if !strings.Contains(row["gc"].Value, "200") {
		t.Errorf("group_concat = %q", row["gc"].Value)
	}
	if row["sm"].IsZero() {
		t.Error("sample empty")
	}
}

func TestCountStarOverEmptyMatch(t *testing.T) {
	g := invoices(t)
	res, err := Select(g, `PREFIX ex: <http://e/>
SELECT (COUNT(*) AS ?n) WHERE { ?x ex:nonexistent ?y }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Get(0, "n").Value != "0" {
		t.Fatalf("COUNT(*) over empty = %v", res.Rows)
	}
}

func TestOptional(t *testing.T) {
	g := invoices(t)
	g.Add(rdf.Triple{S: rdf.NewIRI("http://e/i1"), P: rdf.NewIRI("http://e/note"), O: rdf.NewString("rush")})
	res, err := Select(g, `PREFIX ex: <http://e/>
SELECT ?i ?n WHERE { ?i ex:takesPlaceAt ?b . OPTIONAL { ?i ex:note ?n } }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 7 {
		t.Fatalf("rows = %d, want 7", res.Len())
	}
	bound := 0
	for _, row := range bindings(res) {
		if _, ok := row["n"]; ok {
			bound++
		}
	}
	if bound != 1 {
		t.Errorf("bound notes = %d, want 1", bound)
	}
}

func TestUnion(t *testing.T) {
	g := invoices(t)
	res, err := Select(g, `PREFIX ex: <http://e/>
SELECT ?i WHERE {
  { ?i ex:delivers ex:fanta } UNION { ?i ex:delivers ex:pepsi }
}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 { // i5 + i2,i7
		t.Fatalf("rows = %d, want 3", res.Len())
	}
}

func TestMinusAndNotExists(t *testing.T) {
	g := invoices(t)
	for _, src := range []string{
		`PREFIX ex: <http://e/>
SELECT ?i WHERE { ?i ex:takesPlaceAt ?b . MINUS { ?i ex:delivers ex:coca } }`,
		`PREFIX ex: <http://e/>
SELECT ?i WHERE { ?i ex:takesPlaceAt ?b . FILTER NOT EXISTS { ?i ex:delivers ex:coca } }`,
	} {
		res, err := Select(g, src)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 3 { // i2, i5? no — i5 delivers fanta: i2,i5,i7
			t.Fatalf("rows = %d, want 3 for %s\n%s", res.Len(), src, res)
		}
	}
}

func TestBindAndValues(t *testing.T) {
	g := invoices(t)
	res, err := Select(g, `PREFIX ex: <http://e/>
SELECT ?i ?dbl WHERE {
  VALUES ?i { ex:i1 ex:i2 }
  ?i ex:inQuantity ?q .
  BIND(?q * 2 AS ?dbl)
}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("rows = %d", res.Len())
	}
	if v := get(t, res, "i", "i1", "dbl"); v.Value != "400" {
		t.Errorf("dbl = %v", v)
	}
}

func TestSubquerySemantics(t *testing.T) {
	g := invoices(t)
	// Branches whose total exceeds the overall average quantity * count
	res, err := Select(g, `PREFIX ex: <http://e/>
SELECT ?b ?total WHERE {
  { SELECT ?b (SUM(?q) AS ?total) WHERE { ?i ex:takesPlaceAt ?b . ?i ex:inQuantity ?q } GROUP BY ?b }
  FILTER(?total >= 600)
}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2\n%s", res.Len(), res)
	}
}

func TestPropertyPathSeq(t *testing.T) {
	g := invoices(t)
	res, err := Select(g, `PREFIX ex: <http://e/>
SELECT ?i WHERE { ?i ex:delivers/ex:brand ex:PepsiCo }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 { // i2, i7
		t.Fatalf("rows = %d, want 2", res.Len())
	}
}

func TestPropertyPathInverseAltMod(t *testing.T) {
	ttl := `@prefix ex: <http://e/> .
ex:a ex:parent ex:b .
ex:b ex:parent ex:c .
ex:c ex:parent ex:d .
ex:x ex:mother ex:y .
`
	g := rdf.MustLoadTurtle(ttl)
	// inverse
	res, err := Select(g, `PREFIX ex: <http://e/> SELECT ?x WHERE { ex:b ^ex:parent ?x }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Get(0, "x").LocalName() != "a" {
		t.Fatalf("inverse: %s", res)
	}
	// one-or-more
	res, err = Select(g, `PREFIX ex: <http://e/> SELECT ?x WHERE { ex:a ex:parent+ ?x }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("+: rows = %d, want 3", res.Len())
	}
	// zero-or-more includes a itself
	res, err = Select(g, `PREFIX ex: <http://e/> SELECT ?x WHERE { ex:a ex:parent* ?x }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 {
		t.Fatalf("*: rows = %d, want 4", res.Len())
	}
	// alternative
	res, err = Select(g, `PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:parent|ex:mother ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 {
		t.Fatalf("|: rows = %d, want 4", res.Len())
	}
	// zero-or-one
	res, err = Select(g, `PREFIX ex: <http://e/> SELECT ?x WHERE { ex:a ex:parent? ?x }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 { // a itself and b
		t.Fatalf("?: rows = %d, want 2", res.Len())
	}
}

func TestDistinctOrderLimitOffset(t *testing.T) {
	g := invoices(t)
	res, err := Select(g, `PREFIX ex: <http://e/>
SELECT DISTINCT ?b WHERE { ?i ex:takesPlaceAt ?b } ORDER BY ?b`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Fatalf("distinct rows = %d", res.Len())
	}
	if res.Get(0, "b").LocalName() != "branch1" {
		t.Errorf("order: %v", res.Rows)
	}
	res, err = Select(g, `PREFIX ex: <http://e/>
SELECT DISTINCT ?b WHERE { ?i ex:takesPlaceAt ?b } ORDER BY DESC(?b) LIMIT 1 OFFSET 1`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Get(0, "b").LocalName() != "branch2" {
		t.Fatalf("limit/offset: %s", res)
	}
}

func TestOrderByNumeric(t *testing.T) {
	g := invoices(t)
	res, err := Select(g, `PREFIX ex: <http://e/>
SELECT ?i ?q WHERE { ?i ex:inQuantity ?q } ORDER BY DESC(?q) ?i`)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Get(0, "q").Int(); v != 400 {
		t.Errorf("first row q = %v", res.Get(0, "q"))
	}
	if v, _ := res.Get(6, "q").Int(); v != 100 {
		t.Errorf("last row q = %v", res.Get(6, "q"))
	}
}

func TestSelectStar(t *testing.T) {
	g := invoices(t)
	res, err := Select(g, `PREFIX ex: <http://e/>
SELECT * WHERE { ?i ex:delivers ex:fanta . ?i ex:inQuantity ?q }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vars) != 2 || res.Len() != 1 {
		t.Fatalf("star: vars=%v rows=%d", res.Vars, res.Len())
	}
}

func TestSameVariableTwiceInPattern(t *testing.T) {
	ttl := `@prefix ex: <http://e/> .
ex:a ex:knows ex:a .
ex:a ex:knows ex:b .
`
	g := rdf.MustLoadTurtle(ttl)
	res, err := Select(g, `PREFIX ex: <http://e/> SELECT ?x WHERE { ?x ex:knows ?x }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Get(0, "x").LocalName() != "a" {
		t.Fatalf("self-loop: %s", res)
	}
}

func TestAsk(t *testing.T) {
	g := invoices(t)
	yes, err := Ask(g, `PREFIX ex: <http://e/> ASK { ex:i1 ex:inQuantity 200 }`)
	if err != nil || !yes {
		t.Fatalf("ask true: %v %v", yes, err)
	}
	no, err := Ask(g, `PREFIX ex: <http://e/> ASK { ex:i1 ex:inQuantity 999 }`)
	if err != nil || no {
		t.Fatalf("ask false: %v %v", no, err)
	}
}

func TestConstruct(t *testing.T) {
	g := invoices(t)
	out, err := Construct(g, `PREFIX ex: <http://e/>
CONSTRUCT { ?i ex:brandOf ?b } WHERE { ?i ex:delivers/ex:brand ?b }`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 7 {
		t.Fatalf("constructed %d triples, want 7", out.Len())
	}
	if !out.Has(rdf.Triple{
		S: rdf.NewIRI("http://e/i1"),
		P: rdf.NewIRI("http://e/brandOf"),
		O: rdf.NewIRI("http://e/CocaCola"),
	}) {
		t.Error("constructed triple missing")
	}
}

func TestDescribe(t *testing.T) {
	g := invoices(t)
	// Direct IRI.
	out, err := Describe(g, `PREFIX ex: <http://e/> DESCRIBE ex:i1`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 4 { // i1's four properties
		t.Fatalf("described %d triples, want 4\n%v", out.Len(), out.Triples())
	}
	// Variable with WHERE.
	out, err = Describe(g, `PREFIX ex: <http://e/>
DESCRIBE ?p WHERE { ?p ex:brand ex:PepsiCo }`)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Has(rdf.Triple{
		S: rdf.NewIRI("http://e/pepsi"), P: rdf.NewIRI("http://e/brand"),
		O: rdf.NewIRI("http://e/PepsiCo"),
	}) {
		t.Errorf("pepsi description missing: %v", out.Triples())
	}
	// Blank-node closure.
	g2 := rdf.MustLoadTurtle(`@prefix ex: <http://e/> .
ex:a ex:detail [ ex:k "v" ] .
`)
	out, err = Describe(g2, `PREFIX ex: <http://e/> DESCRIBE ex:a`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 2 {
		t.Fatalf("blank closure: %v", out.Triples())
	}
	// Errors.
	if _, err := Describe(g, `SELECT ?s WHERE { ?s ?p ?o }`); err == nil {
		t.Error("SELECT accepted by Describe")
	}
	if _, err := Parse(`DESCRIBE`); err == nil {
		t.Error("bare DESCRIBE accepted")
	}
}

func TestFilterErrorIsFalse(t *testing.T) {
	g := invoices(t)
	// ?b is an IRI; YEAR(?b) errors; the row must be filtered out, not crash.
	res, err := Select(g, `PREFIX ex: <http://e/>
SELECT ?i WHERE { ?i ex:takesPlaceAt ?b . FILTER(YEAR(?b) = 2021) }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("rows = %d, want 0", res.Len())
	}
}

func TestThreeValuedLogic(t *testing.T) {
	g := invoices(t)
	// (error || true) must be true: unbound ?nope errors, second operand true.
	res, err := Select(g, `PREFIX ex: <http://e/>
SELECT ?i WHERE { ?i ex:delivers ex:fanta . FILTER(YEAR(?i) = 1 || true) }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d, want 1 (error||true should hold)", res.Len())
	}
	// (error && false) must be false, i.e. filtered.
	res, err = Select(g, `PREFIX ex: <http://e/>
SELECT ?i WHERE { ?i ex:delivers ex:fanta . FILTER(YEAR(?i) = 1 && false) }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 0 {
		t.Fatalf("rows = %d, want 0", res.Len())
	}
}

func TestBuiltinsInSelect(t *testing.T) {
	g := invoices(t)
	res, err := Select(g, `PREFIX ex: <http://e/>
SELECT ?i (YEAR(?d) AS ?y) (STR(?d) AS ?s) WHERE { ?i ex:hasDate ?d } LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	row := bindings(res)[0]
	if row["y"].Value != "2021" {
		t.Errorf("year = %v", row["y"])
	}
	if !strings.HasPrefix(row["s"].Value, "2021-") {
		t.Errorf("str = %v", row["s"])
	}
}

func TestResultsCSVAndJSON(t *testing.T) {
	g := invoices(t)
	tab, err := ExecSelectTable(context.Background(), g, MustParse(`PREFIX ex: <http://e/>
SELECT ?b (SUM(?q) AS ?total) WHERE { ?i ex:takesPlaceAt ?b . ?i ex:inQuantity ?q } GROUP BY ?b`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tab.Sort()
	res := tab.Results()
	var csvBuf bytes.Buffer
	if err := tab.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csvBuf.String(), "b,total\n") {
		t.Errorf("csv header: %q", csvBuf.String())
	}
	back, err := ParseJSONResults(bytes.NewReader(tab.JSON()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != res.Len() || len(back.Vars) != 2 {
		t.Fatalf("json roundtrip: %d rows", back.Len())
	}
	// values survive with datatypes
	found := false
	for _, row := range bindings(back) {
		if row["b"] == rdf.NewIRI("http://e/branch1") {
			found = true
			if n, _ := row["total"].Int(); n != 300 {
				t.Errorf("roundtrip total = %v", row["total"])
			}
		}
	}
	if !found {
		t.Error("branch1 lost in JSON roundtrip")
	}
}

func TestJoinOrderingCorrectness(t *testing.T) {
	// Whatever the join order, results must be identical. Build a graph
	// where textual order is pathological (unselective pattern first).
	g := invoices(t)
	res, err := Select(g, `PREFIX ex: <http://e/>
SELECT ?i WHERE {
  ?i ?p ?o .
  ?i ex:delivers ex:fanta .
}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 { // i5 has 4 properties
		t.Fatalf("rows = %d, want 4\n%s", res.Len(), res)
	}
}

func BenchmarkSelectGroupBy(b *testing.B) {
	g := invoices(b)
	q := MustParse(`PREFIX ex: <http://e/>
SELECT ?x2 SUM(?x3) WHERE { ?x1 ex:takesPlaceAt ?x2 . ?x1 ex:inQuantity ?x3 } GROUP BY ?x2`)
	b.ResetTimer()
	for b.Loop() {
		if _, err := ExecSelect(g, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJoinOrdering compares selectivity-ordered evaluation with textual
// order (ablation #3 in DESIGN.md) by running a query whose textual order is
// maximally unselective.
func BenchmarkJoinOrdering(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("@prefix ex: <http://e/> .\n")
	for i := 0; i < 2000; i++ {
		sb.WriteString(fmt.Sprintf("ex:s%d ex:p ex:o%d .\n", i, i%100))
	}
	sb.WriteString("ex:s1 ex:rare ex:needle .\n")
	g := rdf.MustLoadTurtle(sb.String())
	q := MustParse(`PREFIX ex: <http://e/>
SELECT ?s WHERE { ?s ex:p ?o . ?s ex:rare ex:needle }`)
	b.Run("ordered", func(b *testing.B) {
		for b.Loop() {
			if _, err := ExecSelect(g, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("textual", func(b *testing.B) {
		for b.Loop() {
			if _, err := ExecSelectOpts(g, q, Options{NoReorder: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestNoReorderSameResults: the ablation switch must not change semantics.
func TestNoReorderSameResults(t *testing.T) {
	g := invoices(t)
	q := MustParse(`PREFIX ex: <http://e/>
SELECT ?i ?b WHERE { ?i ?p ?o . ?i ex:takesPlaceAt ?b . ?i ex:delivers ex:coca }`)
	a, err := ExecSelect(g, q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExecSelectOpts(g, q, Options{NoReorder: true})
	if err != nil {
		t.Fatal(err)
	}
	a.Sort()
	b.Sort()
	if a.Len() != b.Len() {
		t.Fatalf("row counts differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Rows {
		if !slices.Equal(a.Rows[i], b.Rows[i]) {
			t.Fatalf("row %d differs", i)
		}
	}
}

// bindings renders a result table as one map per row (bound variables
// only), the form most assertions read.
func bindings(res *Results) []Binding {
	out := make([]Binding, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = Binding{}
		for j, t := range row {
			if !t.IsZero() {
				out[i][res.Vars[j]] = t
			}
		}
	}
	return out
}
