package sparql

import (
	"maps"
	"sort"
	"testing"

	"rdfanalytics/internal/rdf"
)

// Regression tests for the SPARQL-semantics conformance sweep: each test
// fails on the pre-fix evaluator (see DESIGN.md "Modifier pipeline order").

func specGraph(t *testing.T, triples ...rdf.Triple) *rdf.Graph {
	t.Helper()
	g := rdf.NewGraph()
	for _, tr := range triples {
		g.Add(tr)
	}
	return g
}

func e(l string) rdf.Term { return rdf.NewIRI("http://e/" + l) }

// TestOrderByNonProjected: per SPARQL 1.1 §15.1 / §18.2.4.4 ordering runs on
// the pre-projection solutions, so sorting by a variable the projection
// drops must still reorder the rows. The pre-fix evaluator projected first,
// making the ORDER BY a silent no-op.
func TestOrderByNonProjected(t *testing.T) {
	g := specGraph(t,
		rdf.NewTriple(e("alice"), e("name"), rdf.NewString("alice")),
		rdf.NewTriple(e("alice"), e("age"), rdf.NewInteger(30)),
		rdf.NewTriple(e("bob"), e("name"), rdf.NewString("bob")),
		rdf.NewTriple(e("bob"), e("age"), rdf.NewInteger(25)),
		rdf.NewTriple(e("carol"), e("name"), rdf.NewString("carol")),
		rdf.NewTriple(e("carol"), e("age"), rdf.NewInteger(41)),
	)
	res, err := Select(g, `SELECT ?name WHERE { ?p <http://e/name> ?name . ?p <http://e/age> ?age } ORDER BY DESC(?age)`)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, row := range bindings(res) {
		got = append(got, row["name"].Value)
	}
	want := []string{"carol", "alice", "bob"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order by non-projected ?age: got %v, want %v", got, want)
		}
	}
	if len(res.Vars) != 1 || res.Vars[0] != "name" {
		t.Fatalf("projection leaked: vars %v", res.Vars)
	}
	for _, row := range bindings(res) {
		if _, ok := row["age"]; ok {
			t.Fatalf("?age leaked through projection: %v", row)
		}
	}
}

// TestOrderByDateTimeTimezones: xsd:dateTime literals with timezone offsets
// order on the time line, not lexically. "2021-06-01T23:00:00+05:00" is
// 18:00Z and must sort before "2021-06-01T20:00:00Z" even though it is the
// lexically larger string.
func TestOrderByDateTimeTimezones(t *testing.T) {
	g := specGraph(t,
		rdf.NewTriple(e("ev1"), e("at"), rdf.NewTyped("2021-06-01T23:00:00+05:00", rdf.XSDDateTime)), // 18:00Z
		rdf.NewTriple(e("ev2"), e("at"), rdf.NewTyped("2021-06-01T20:00:00Z", rdf.XSDDateTime)),      // 20:00Z
		rdf.NewTriple(e("ev3"), e("at"), rdf.NewTyped("2021-06-01T16:30:00-04:00", rdf.XSDDateTime)), // 20:30Z
	)
	res, err := Select(g, `SELECT ?ev WHERE { ?ev <http://e/at> ?at } ORDER BY ?at`)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, row := range bindings(res) {
		got = append(got, row["ev"].LocalName())
	}
	want := []string{"ev1", "ev2", "ev3"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dateTime order: got %v, want %v", got, want)
		}
	}
}

// TestMinMaxDateTime: MIN/MAX over temporal literals pick the chronological
// extremes, honoring timezone offsets.
func TestMinMaxDateTime(t *testing.T) {
	g := specGraph(t,
		rdf.NewTriple(e("ev1"), e("at"), rdf.NewTyped("2021-06-01T23:00:00+05:00", rdf.XSDDateTime)), // 18:00Z: min
		rdf.NewTriple(e("ev2"), e("at"), rdf.NewTyped("2021-06-01T20:30:00Z", rdf.XSDDateTime)),      // max
		rdf.NewTriple(e("ev3"), e("at"), rdf.NewTyped("2021-06-01T16:00:00-04:00", rdf.XSDDateTime)), // 20:00Z
	)
	res, err := Select(g, `SELECT (MIN(?at) AS ?lo) (MAX(?at) AS ?hi) WHERE { ?ev <http://e/at> ?at }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	if got := res.Get(0, "lo").Value; got != "2021-06-01T23:00:00+05:00" {
		t.Errorf("MIN = %q, want the 18:00Z instant", got)
	}
	if got := res.Get(0, "hi").Value; got != "2021-06-01T20:30:00Z" {
		t.Errorf("MAX = %q, want the 20:30Z instant", got)
	}
}

// TestSumInt64Precision: SUM over an all-integer group keeps an int64
// accumulator. The pre-fix float64 accumulator rounds past 2^53, so
// 2^60 + 1 + 1 came back as 2^60.
func TestSumInt64Precision(t *testing.T) {
	big := int64(1) << 60
	g := specGraph(t,
		rdf.NewTriple(e("a"), e("v"), rdf.NewInteger(big)),
		rdf.NewTriple(e("b"), e("v"), rdf.NewInteger(1)),
		rdf.NewTriple(e("c"), e("v"), rdf.NewInteger(1)),
	)
	res, err := Select(g, `SELECT (SUM(?v) AS ?s) WHERE { ?x <http://e/v> ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := res.Get(0, "s").Int()
	if !ok {
		t.Fatalf("SUM not an integer: %v", res.Get(0, "s"))
	}
	if want := big + 2; got != want {
		t.Fatalf("SUM = %d, want %d (float64 accumulator lost precision)", got, want)
	}
	if res.Get(0, "s").Datatype != rdf.XSDInteger {
		t.Errorf("SUM datatype = %s, want xsd:integer", res.Get(0, "s").Datatype)
	}
}

// TestMinEmptyGroupUnbound: per §18.5 MIN/MAX of an empty group is an
// evaluation error, which leaves that result cell unbound — the query as a
// whole still succeeds and other cells are computed.
func TestMinEmptyGroupUnbound(t *testing.T) {
	g := specGraph(t,
		rdf.NewTriple(e("a"), e("p"), rdf.NewInteger(1)),
		rdf.NewTriple(e("a"), e("q"), rdf.NewInteger(7)),
		rdf.NewTriple(e("b"), e("p"), rdf.NewInteger(2)),
		// e:b has no q values: its group is empty for MIN(?y).
	)
	res, err := Select(g, `SELECT ?x (MIN(?y) AS ?m) (COUNT(?p) AS ?n) WHERE { ?x <http://e/p> ?p . OPTIONAL { ?x <http://e/q> ?y } } GROUP BY ?x`)
	if err != nil {
		t.Fatalf("empty-group MIN killed the query: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	byX := map[string]Binding{}
	for _, row := range bindings(res) {
		byX[row["x"].LocalName()] = row
	}
	if m, ok := byX["a"]["m"]; !ok || m.Value != "7" {
		t.Errorf("group a MIN = %v (bound=%v), want 7", m, ok)
	}
	if m, ok := byX["b"]["m"]; ok {
		t.Errorf("group b MIN should be unbound, got %v", m)
	}
	if n, ok := byX["b"]["n"]; !ok || n.Value != "1" {
		t.Errorf("group b COUNT = %v, want 1", n)
	}
	// And over a completely empty match: one solution, cell unbound.
	res, err = Select(rdf.NewGraph(), `SELECT (MAX(?v) AS ?m) WHERE { ?s <http://e/v> ?v }`)
	if err != nil {
		t.Fatalf("MAX over empty match: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows over empty match: %d", len(res.Rows))
	}
	if m := res.Get(0, "m"); !m.IsZero() {
		t.Errorf("MAX over no rows should be unbound, got %v", m)
	}
}

// TestCountDistinctStar: COUNT(DISTINCT *) is the number of distinct
// solutions of the group (§18.5.1.2), not its row count — the old evaluator
// filled the aggregate with one distinct placeholder per row and answered 2
// here.
func TestCountDistinctStar(t *testing.T) {
	g := specGraph(t, rdf.NewTriple(e("a"), e("p"), e("x")))
	res, err := Select(g, `SELECT (COUNT(DISTINCT *) AS ?n) (COUNT(*) AS ?all)
WHERE { { ?s <http://e/p> ?o } UNION { ?s <http://e/p> ?o } }`)
	if err != nil {
		t.Fatal(err)
	}
	if n, all := res.Get(0, "n").Value, res.Get(0, "all").Value; n != "1" || all != "2" {
		t.Errorf("COUNT(DISTINCT *) = %s, COUNT(*) = %s; want 1 and 2", n, all)
	}
	// Variables nothing else mentions are part of the solutions all the same.
	g.Add(rdf.NewTriple(e("b"), e("p"), e("x")))
	res, err = Select(g, `SELECT (COUNT(DISTINCT *) AS ?n) WHERE { ?s <http://e/p> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Get(0, "n").Value; n != "2" {
		t.Errorf("COUNT(DISTINCT *) over two solutions = %s, want 2", n)
	}
}

// TestOrderByAggregate: ORDER BY may apply an aggregate directly; the
// evaluator precomputes it per group into a hidden sort key.
func TestOrderByAggregate(t *testing.T) {
	g := specGraph(t,
		rdf.NewTriple(e("i1"), e("at"), e("b1")),
		rdf.NewTriple(e("i1"), e("qty"), rdf.NewInteger(10)),
		rdf.NewTriple(e("i2"), e("at"), e("b2")),
		rdf.NewTriple(e("i2"), e("qty"), rdf.NewInteger(5)),
		rdf.NewTriple(e("i3"), e("at"), e("b2")),
		rdf.NewTriple(e("i3"), e("qty"), rdf.NewInteger(1)),
	)
	res, err := Select(g, `SELECT ?b WHERE { ?i <http://e/at> ?b . ?i <http://e/qty> ?q } GROUP BY ?b ORDER BY DESC(SUM(?q))`)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, row := range bindings(res) {
		got = append(got, row["b"].LocalName())
	}
	if len(got) != 2 || got[0] != "b1" || got[1] != "b2" {
		t.Fatalf("ORDER BY DESC(SUM): got %v, want [b1 b2]", got)
	}
	for _, row := range bindings(res) {
		for v := range row {
			if v != "b" {
				t.Fatalf("hidden sort key leaked into projection: %v", row)
			}
		}
	}
}

// TestOrderByDescStrictWeakOrder: the three-way ORDER BY comparator must be
// antisymmetric in the presence of equal-valued but lexically distinct terms
// ("1" vs "01" as xsd:integer break the tie lexically) and of unbound rows,
// under both ASC and DESC.
func TestOrderByDescStrictWeakOrder(t *testing.T) {
	g := rdf.NewGraph()
	cmp := OrderComparator(g, []OrderCond{{Desc: true, Expr: ExprVar{Name: "v"}}})
	a := Binding{"v": rdf.NewTyped("1", rdf.XSDInteger)}
	b := Binding{"v": rdf.NewTyped("01", rdf.XSDInteger)}
	u := Binding{} // unbound sort key
	for _, pair := range [][2]Binding{{a, b}, {a, u}, {b, u}, {a, a}, {u, u}} {
		if cmp(pair[0], pair[1])+cmp(pair[1], pair[0]) != 0 {
			t.Fatalf("comparator not antisymmetric on %v / %v", pair[0], pair[1])
		}
	}
	// A DESC sort over many equivalent keys must terminate and stay a
	// permutation (the broken comparator could corrupt the slice).
	rows := []Binding{a, b, maps.Clone(a), maps.Clone(b), {"v": rdf.NewInteger(2)}}
	sort.SliceStable(rows, func(i, j int) bool { return cmp(rows[i], rows[j]) < 0 })
	if rows[0]["v"].Value != "2" {
		t.Fatalf("DESC sort: want 2 first, got %v", rows[0]["v"])
	}
}

// TestOrderBySelectAlias: ordering can also reference a SELECT-expression
// alias, which the Extend step binds before the sort.
func TestOrderBySelectAlias(t *testing.T) {
	g := specGraph(t,
		rdf.NewTriple(e("a"), e("v"), rdf.NewInteger(3)),
		rdf.NewTriple(e("b"), e("v"), rdf.NewInteger(1)),
		rdf.NewTriple(e("c"), e("v"), rdf.NewInteger(2)),
	)
	res, err := Select(g, `SELECT ?x (?v * 10 AS ?w) WHERE { ?x <http://e/v> ?v } ORDER BY DESC(?w)`)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, row := range bindings(res) {
		got = append(got, row["x"].LocalName())
	}
	want := []string{"a", "c", "b"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ORDER BY alias: got %v, want %v", got, want)
		}
	}
}

// TestTemporalVsStringCompare: a plain xsd:string that merely looks like a
// date keeps string semantics in filters — only xsd:date/xsd:dateTime
// literals compare on the time line.
func TestTemporalVsStringCompare(t *testing.T) {
	g := specGraph(t,
		// Lexically "2021-06-01T23:00:00+05:00" > "2021-06-01T20:00:00Z" is
		// false (\'+\' < \'Z\'), but temporally 18:00Z < 20:00Z too; use a pair
		// where the two orders disagree: "...T09:00:00+12:00" (21:00Z prev day?) —
		// keep it simple: as strings, "2021-06-02T01:00:00+05:00" < "2021-06-01T21:00:00Z"
		// is false lexically (02>01 at position 9), while temporally 20:00Z < 21:00Z is true.
		rdf.NewTriple(e("x"), e("s"), rdf.NewString("2021-06-02T01:00:00+05:00")),
	)
	// String comparison: "2021-06-02..." < "2021-06-01..." must be false.
	got, err := Ask(g, `ASK { ?x <http://e/s> ?v . FILTER(?v < "2021-06-01T21:00:00Z") }`)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("plain strings compared temporally")
	}
	// The same lexical forms typed xsd:dateTime compare temporally: 20:00Z < 21:00Z.
	g2 := specGraph(t,
		rdf.NewTriple(e("x"), e("d"), rdf.NewTyped("2021-06-02T01:00:00+05:00", rdf.XSDDateTime)),
	)
	got, err = Ask(g2, `ASK { ?x <http://e/d> ?v . FILTER(?v < "2021-06-01T21:00:00Z"^^<http://www.w3.org/2001/XMLSchema#dateTime>) }`)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("typed dateTime literals did not compare temporally")
	}
}

// TestPathPlusThroughCycle: x p+ x holds when a cycle of p leads back to x
// (SPARQL 1.1 §18.4, OneOrMorePath: the start node is a result if a path of
// length ≥ 1 reaches it). The expansion used to mark the start as visited
// before the first step and never reported it; the path+plain differential
// (TestPathGroupDifferential) found it the moment it ran.
func TestPathPlusThroughCycle(t *testing.T) {
	g := specGraph(t,
		rdf.NewTriple(e("a"), e("p"), e("b")),
		rdf.NewTriple(e("b"), e("p"), e("a")),
		rdf.NewTriple(e("b"), e("p"), e("c")),
	)
	for src, want := range map[string]int{
		`SELECT ?x WHERE { <http://e/a> <http://e/p>+ ?x }`: 3, // b, a, c
		`SELECT ?x WHERE { ?x <http://e/p>+ ?x }`:           2, // a, b
		`SELECT ?x WHERE { <http://e/c> <http://e/p>+ ?x }`: 0,
		`SELECT ?x WHERE { <http://e/c> <http://e/p>* ?x }`: 1, // c itself, once
		`SELECT ?x WHERE { <http://e/a> <http://e/p>* ?x }`: 3,
	} {
		res, err := Select(g, src)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != want {
			t.Errorf("%s: %d rows, want %d: %v", src, res.Len(), want, bindings(res))
		}
	}
}
