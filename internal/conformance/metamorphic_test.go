package conformance

// Metamorphic oracles: for seeded random queries over generated graphs, two
// query formulations that the SPARQL algebra defines as equivalent must
// produce identical result tables. No expected outputs are hand-computed —
// the oracle is the equivalence itself, which is what lets these tests cover
// query shapes no human enumerated.

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
	"rdfanalytics/internal/sparql"
)

const invPrefix = "PREFIX inv: <http://example.org/invoices#>\n"

// metaGraph is the shared generated dataset the metamorphic oracles run
// against. Deterministic per seed, ~300 invoices over 6 branches.
func metaGraph() *rdf.Graph {
	return datagen.Invoices(datagen.InvoicesConfig{
		Invoices: 300, Branches: 6, Products: 12, Brands: 4, Seed: 7,
	})
}

func mustSelect(t *testing.T, g *rdf.Graph, query string) *sparql.Results {
	t.Helper()
	q, err := sparql.Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	res, err := sparql.ExecSelect(g, q)
	if err != nil {
		t.Fatalf("exec %q: %v", query, err)
	}
	return res
}

// randomCore builds a random basic graph pattern over the invoices schema
// plus zero or more filters, and returns it with the variables it binds
// (sorted, ?i always included).
func randomCore(rng *rand.Rand) (pattern string, vars []string) {
	var sb strings.Builder
	sb.WriteString("?i a inv:Invoice . ")
	vars = []string{"i"}
	add := func(v, pat string) {
		sb.WriteString(pat)
		sb.WriteString(" ")
		vars = append(vars, v)
	}
	if rng.Intn(2) == 0 {
		add("b", "?i inv:takesPlaceAt ?b .")
	}
	if rng.Intn(2) == 0 {
		add("p", "?i inv:delivers ?p .")
	}
	if rng.Intn(2) == 0 {
		add("d", "?i inv:hasDate ?d .")
	}
	// Always bind the measure so filters have something numeric to chew on.
	add("q", "?i inv:inQuantity ?q .")
	has := func(v string) bool {
		for _, x := range vars {
			if x == v {
				return true
			}
		}
		return false
	}
	if rng.Intn(2) == 0 {
		sb.WriteString(fmt.Sprintf("FILTER(?q > %d) ", 50+10*rng.Intn(40)))
	}
	if has("d") && rng.Intn(2) == 0 {
		sb.WriteString(fmt.Sprintf("FILTER(MONTH(?d) <= %d) ", 1+rng.Intn(12)))
	}
	if has("b") && rng.Intn(3) == 0 {
		sb.WriteString(fmt.Sprintf("FILTER(?b = inv:branch%d) ", 1+rng.Intn(6)))
	}
	sort.Strings(vars)
	return sb.String(), vars
}

func projection(vars []string) string {
	out := make([]string, len(vars))
	for i, v := range vars {
		out[i] = "?" + v
	}
	return strings.Join(out, " ")
}

// TestMetamorphicPagination: paging through LIMIT/OFFSET and concatenating
// the pages must reproduce the full ordered scan exactly — no dropped,
// duplicated or reordered solutions at page boundaries.
func TestMetamorphicPagination(t *testing.T) {
	g := metaGraph()
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		core, vars := randomCore(rng)
		proj := projection(vars)
		// ?i is unique per solution here, so ORDER BY over all projected
		// variables (?i among them) is a total order: pagination is
		// deterministic.
		base := invPrefix + "SELECT " + proj + " WHERE { " + core + "} ORDER BY " + proj
		full := RowKeys(mustSelect(t, g, base))
		pageSize := 1 + rng.Intn(7)
		var paged []string
		for offset := 0; ; offset += pageSize {
			page := mustSelect(t, g, base+fmt.Sprintf(" LIMIT %d OFFSET %d", pageSize, offset))
			paged = append(paged, RowKeys(page)...)
			if len(page.Rows) < pageSize {
				break
			}
			if offset > len(full)+pageSize {
				t.Fatalf("round %d: pagination does not terminate", round)
			}
		}
		if len(paged) != len(full) {
			t.Fatalf("round %d (%s): paged %d rows, full scan %d", round, core, len(paged), len(full))
		}
		for i := range full {
			if paged[i] != full[i] {
				t.Fatalf("round %d (%s): row %d differs: paged %q, full %q", round, core, i, paged[i], full[i])
			}
		}
	}
}

// TestMetamorphicDistinct: DISTINCT is idempotent (no duplicate rows in its
// output) and set-equivalent to the plain query.
func TestMetamorphicDistinct(t *testing.T) {
	g := metaGraph()
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 20; round++ {
		core, vars := randomCore(rng)
		// Project a proper subset that drops ?i so duplicates can arise.
		var sub []string
		for _, v := range vars {
			if v == "i" {
				continue
			}
			if len(sub) == 0 || rng.Intn(2) == 0 {
				sub = append(sub, v)
			}
		}
		if len(sub) == 0 {
			continue
		}
		proj := projection(sub)
		plain := RowKeys(mustSelect(t, g, invPrefix+"SELECT "+proj+" WHERE { "+core+"}"))
		dist := RowKeys(mustSelect(t, g, invPrefix+"SELECT DISTINCT "+proj+" WHERE { "+core+"}"))
		seen := map[string]bool{}
		for _, k := range dist {
			if seen[k] {
				t.Fatalf("round %d (%s): DISTINCT emitted duplicate row %q", round, core, renderKey(k))
			}
			seen[k] = true
		}
		want := map[string]bool{}
		for _, k := range plain {
			want[k] = true
		}
		if len(seen) != len(want) {
			t.Fatalf("round %d (%s): DISTINCT has %d unique rows, plain query has %d", round, core, len(seen), len(want))
		}
		for k := range want {
			if !seen[k] {
				t.Fatalf("round %d (%s): row %q lost by DISTINCT", round, core, renderKey(k))
			}
		}
	}
}

// TestMetamorphicUnionCommutes: UNION is multiset-commutative.
func TestMetamorphicUnionCommutes(t *testing.T) {
	g := metaGraph()
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 20; round++ {
		a := fmt.Sprintf("{ ?i inv:inQuantity ?q . FILTER(?q >= %d) }", 100+10*rng.Intn(40))
		b := fmt.Sprintf("{ ?i inv:takesPlaceAt inv:branch%d }", 1+rng.Intn(6))
		ab := mustSelect(t, g, invPrefix+"SELECT ?i WHERE { "+a+" UNION "+b+" }")
		ba := mustSelect(t, g, invPrefix+"SELECT ?i WHERE { "+b+" UNION "+a+" }")
		if err := CompareResults(ab, ba, false); err != nil {
			t.Fatalf("round %d: %s UNION %s not commutative: %v", round, a, b, err)
		}
	}
}

// TestMetamorphicFilterSplit: FILTER(e1 && e2) is equivalent to the two
// conjuncts as separate FILTERs over the same group.
func TestMetamorphicFilterSplit(t *testing.T) {
	g := metaGraph()
	rng := rand.New(rand.NewSource(4))
	for round := 0; round < 20; round++ {
		lo := 50 + 10*rng.Intn(30)
		hi := lo + 10*rng.Intn(30)
		pat := "?i inv:inQuantity ?q . ?i inv:takesPlaceAt ?b . "
		joined := mustSelect(t, g, invPrefix+fmt.Sprintf(
			"SELECT ?i ?b WHERE { %sFILTER(?q > %d && ?q <= %d) }", pat, lo, hi))
		split := mustSelect(t, g, invPrefix+fmt.Sprintf(
			"SELECT ?i ?b WHERE { %sFILTER(?q > %d) FILTER(?q <= %d) }", pat, lo, hi))
		if err := CompareResults(joined, split, false); err != nil {
			t.Fatalf("round %d (lo=%d hi=%d): conjunction split changed the result: %v", round, lo, hi, err)
		}
	}
}

// TestMetamorphicSubqueryFlatten: wrapping a group pattern in
// { SELECT * { P } } is a no-op.
func TestMetamorphicSubqueryFlatten(t *testing.T) {
	g := metaGraph()
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 20; round++ {
		core, vars := randomCore(rng)
		proj := projection(vars)
		flat := mustSelect(t, g, invPrefix+"SELECT "+proj+" WHERE { "+core+"}")
		nested := mustSelect(t, g, invPrefix+"SELECT "+proj+" WHERE { { SELECT * WHERE { "+core+"} } }")
		if err := CompareResults(flat, nested, false); err != nil {
			t.Fatalf("round %d (%s): subquery wrapper changed the result: %v", round, core, err)
		}
	}
}

// TestMetamorphicOrderComparator: the ORDER BY comparator is a strict weak
// order over real result rows — sorting with it yields a sorted slice, it is
// antisymmetric, and both the strict relation and the incomparability
// relation are transitive. A comparator violating these makes sort.Slice
// output order undefined (and historically, platform-dependent).
func TestMetamorphicOrderComparator(t *testing.T) {
	// Timestamps on: xsd:dateTime values with mixed timezone offsets, whose
	// lexical order disagrees with their time-line order — the comparator
	// must still be a strict weak order over them.
	g := datagen.Invoices(datagen.InvoicesConfig{
		Invoices: 300, Branches: 6, Products: 12, Brands: 4, Seed: 7, Timestamps: true,
	})
	res := mustSelect(t, g, invPrefix+
		"SELECT ?i ?b ?q ?d ?ts WHERE { ?i inv:takesPlaceAt ?b . ?i inv:inQuantity ?q . ?i inv:hasDate ?d . ?i inv:hasTimestamp ?ts }")
	rows := make([]sparql.Binding, len(res.Rows))
	for i, row := range res.Rows {
		rows[i] = sparql.Binding{}
		for j, v := range res.Vars {
			rows[i][v] = row[j]
		}
	}
	if len(rows) < 50 {
		t.Fatalf("want a meaningful row population, got %d", len(rows))
	}
	// An all-unbound row participates too: unbound sorts first.
	rows = append(rows, sparql.Binding{})
	conds := []sparql.OrderCond{
		{Desc: true, Expr: sparql.ExprVar{Name: "q"}},
		{Expr: sparql.ExprVar{Name: "ts"}},
		{Expr: sparql.ExprVar{Name: "i"}},
	}
	cmp := sparql.OrderComparator(g, conds)
	sorted := append([]sparql.Binding{}, rows...)
	sort.SliceStable(sorted, func(i, j int) bool { return cmp(sorted[i], sorted[j]) < 0 })
	if !sort.SliceIsSorted(sorted, func(i, j int) bool { return cmp(sorted[i], sorted[j]) < 0 }) {
		t.Fatal("sorting with the ORDER BY comparator did not produce a sorted slice")
	}
	sign := func(x int) int {
		switch {
		case x < 0:
			return -1
		case x > 0:
			return 1
		}
		return 0
	}
	rng := rand.New(rand.NewSource(6))
	pick := func() sparql.Binding { return rows[rng.Intn(len(rows))] }
	for i := 0; i < 2000; i++ {
		a, b, c := pick(), pick(), pick()
		if sign(cmp(a, b)) != -sign(cmp(b, a)) {
			t.Fatalf("antisymmetry violated: cmp(a,b)=%d cmp(b,a)=%d\na=%v\nb=%v", cmp(a, b), cmp(b, a), a, b)
		}
		if cmp(a, b) < 0 && cmp(b, c) < 0 && !(cmp(a, c) < 0) {
			t.Fatalf("transitivity violated: a<b, b<c but not a<c\na=%v\nb=%v\nc=%v", a, b, c)
		}
		if cmp(a, b) == 0 && cmp(b, c) == 0 && cmp(a, c) != 0 {
			t.Fatalf("incomparability not transitive: a~b, b~c but cmp(a,c)=%d\na=%v\nb=%v\nc=%v", cmp(a, c), a, b, c)
		}
		if cmp(a, a) != 0 {
			t.Fatalf("irreflexivity violated: cmp(a,a)=%d for %v", cmp(a, a), a)
		}
	}
}

// TestMetamorphicUnreadPredicates: a query's answer depends only on the
// triples of the predicates it reads (sparql.ReadSet), which is what lets
// the answer cache keep an answer across writes to other predicates. For
// every corpus query that does not read all predicates, seeded random
// triples on fresh predicates and on the case's other predicates (rdf:type
// included) leave the answer byte-identical: the same SELECT body in the
// same row order, the same ASK boolean, the same CONSTRUCT graph.
func TestMetamorphicUnreadPredicates(t *testing.T) {
	cases, err := LoadCases("testdata")
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for _, c := range cases {
		data, err := os.ReadFile(filepath.Join(c.Dir, "data.ttl"))
		if err != nil {
			t.Fatal(err)
		}
		text, err := os.ReadFile(filepath.Join(c.Dir, "query.rq"))
		if err != nil {
			t.Fatal(err)
		}
		g, err := rdf.LoadTurtleString(string(data))
		if err != nil {
			t.Fatal(err)
		}
		q, err := sparql.Parse(string(text))
		if err != nil {
			t.Fatal(err)
		}
		reads := sparql.ReadSet(q)
		if reads.All {
			continue
		}
		covered++
		answer := func(g *rdf.Graph) string {
			switch q.Form {
			case sparql.FormAsk:
				ok, err := sparql.ExecAskCtx(context.Background(), g, q, sparql.Options{})
				if err != nil {
					t.Fatalf("%s/%s: %v", c.Category, c.Name, err)
				}
				return fmt.Sprint(ok)
			case sparql.FormConstruct:
				out, err := sparql.ExecConstructCtx(context.Background(), g, q, sparql.Options{})
				if err != nil {
					t.Fatalf("%s/%s: %v", c.Category, c.Name, err)
				}
				return canonicalNT(out)
			}
			tab, err := sparql.ExecSelectTable(context.Background(), g, q, sparql.Options{})
			if err != nil {
				t.Fatalf("%s/%s: %v", c.Category, c.Name, err)
			}
			return string(tab.JSON())
		}
		want := answer(g)
		for seed := int64(1); seed <= 3; seed++ {
			h := g.Clone()
			addUnread(rand.New(rand.NewSource(seed)), h, reads.Preds)
			if got := answer(h); got != want {
				t.Errorf("%s/%s, seed %d: writes to predicates it does not read (%v) changed the answer\ngot:\n%s\nwant:\n%s",
					c.Category, c.Name, seed, reads.Preds, got, want)
			}
		}
	}
	t.Logf("%d of %d corpus queries read a bounded set of predicates", covered, len(cases))
	if covered < len(cases)/2 {
		t.Errorf("%d of %d corpus queries read a bounded set of predicates, want at least half", covered, len(cases))
	}
}

// addUnread adds 40 random triples to g on predicates outside reads: fresh
// ones and g's own others, rdf:type among them. Subjects and objects are
// g's terms, fresh IRIs and literals of several datatypes.
func addUnread(rng *rand.Rand, g *rdf.Graph, reads []rdf.Term) {
	var preds, terms []rdf.Term
	for i := 0; i < 3; i++ {
		preds = append(preds, rdf.NewIRI(fmt.Sprintf("http://example.org/unread#p%d", i)))
		terms = append(terms, rdf.NewIRI(fmt.Sprintf("http://example.org/unread#x%d", i)))
	}
	for _, p := range append(g.Predicates(), rdf.NewIRI(rdf.RDFType)) {
		if !slices.Contains(reads, p) && !slices.Contains(preds, p) {
			preds = append(preds, p)
		}
	}
	for _, tr := range g.Triples() {
		terms = append(terms, tr.S, tr.O)
	}
	terms = append(terms, rdf.NewInteger(7), rdf.NewString("x"), rdf.NewLangString("x", "en"), rdf.NewTyped("2021-01-01", rdf.XSDDate))
	for i := 0; i < 40; i++ {
		s := terms[rng.Intn(len(terms))]
		if s.IsLiteral() {
			s = terms[rng.Intn(3)]
		}
		g.Add(rdf.Triple{S: s, P: preds[rng.Intn(len(preds))], O: terms[rng.Intn(len(terms))]})
	}
}
