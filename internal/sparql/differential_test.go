package sparql

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"rdfanalytics/internal/rdf"
)

// Differential testing: the engine's BGP evaluation (with join reordering
// and index lookups) must agree with a naive reference evaluator (nested
// loops over the full triple list, textual order) on random graphs and
// random conjunctive queries.

// naiveBGP evaluates triple patterns by brute force.
func naiveBGP(triples []rdf.Triple, patterns []TriplePattern) []Binding {
	results := []Binding{{}}
	for _, tp := range patterns {
		results = naiveJoin(results, tp, triples)
	}
	return results
}

// naiveJoin extends every binding by every triple of rel the pattern matches.
func naiveJoin(results []Binding, tp TriplePattern, rel []rdf.Triple) []Binding {
	var next []Binding
	for _, b := range results {
		for _, tr := range rel {
			nb := maps.Clone(b)
			if !naiveBind(nb, tp.S, tr.S) || !naiveBind(nb, tp.P, tr.P) || !naiveBind(nb, tp.O, tr.O) {
				continue
			}
			next = append(next, nb)
		}
	}
	return next
}

// groupBindings evaluates a bare group pattern and decodes the solution rows
// into one map per row.
func groupBindings(ev *evaluator, gp *GroupPattern) []Binding {
	rows, err := ev.evalWhere(gp)
	if err != nil {
		return nil
	}
	out := make([]Binding, rows.n())
	for i := range out {
		out[i] = Binding{}
		for slot, id := range rows.row(i) {
			if id != 0 {
				out[i][ev.sc.names[slot]] = ev.dict.term(id)
			}
		}
	}
	return out
}

func naiveBind(b Binding, n Node, t rdf.Term) bool {
	if !n.IsVar() {
		return n.Term == t
	}
	if cur, ok := b[n.Var]; ok {
		return cur == t
	}
	b[n.Var] = t
	return true
}

func canonical(rows []Binding, vars []string) []string {
	out := make([]string, 0, len(rows))
	for _, b := range rows {
		var sb strings.Builder
		for _, v := range vars {
			if t, ok := b[v]; ok {
				sb.WriteString(t.String())
			}
			sb.WriteByte('|')
		}
		out = append(out, sb.String())
	}
	sort.Strings(out)
	return out
}

func randomGraph(rng *rand.Rand, n int) (*rdf.Graph, []rdf.Triple) {
	g := rdf.NewGraph()
	subjects := []rdf.Term{}
	for i := 0; i < 4; i++ {
		subjects = append(subjects, rdf.NewIRI(fmt.Sprintf("http://e/s%d", i)))
	}
	preds := []rdf.Term{}
	for i := 0; i < 3; i++ {
		preds = append(preds, rdf.NewIRI(fmt.Sprintf("http://e/p%d", i)))
	}
	objects := append([]rdf.Term{}, subjects...)
	for i := 0; i < 3; i++ {
		objects = append(objects, rdf.NewInteger(int64(i)))
	}
	for i := 0; i < n; i++ {
		g.Add(rdf.Triple{
			S: subjects[rng.Intn(len(subjects))],
			P: preds[rng.Intn(len(preds))],
			O: objects[rng.Intn(len(objects))],
		})
	}
	return g, g.Triples()
}

func randomPattern(rng *rand.Rand) TriplePattern {
	vars := []string{"a", "b", "c"}
	mkNode := func(pool []rdf.Term) Node {
		if rng.Intn(2) == 0 {
			return Var(vars[rng.Intn(len(vars))])
		}
		return TermNode(pool[rng.Intn(len(pool))])
	}
	subjects := []rdf.Term{
		rdf.NewIRI("http://e/s0"), rdf.NewIRI("http://e/s1"),
		rdf.NewIRI("http://e/s2"), rdf.NewIRI("http://e/s3"),
	}
	preds := []rdf.Term{
		rdf.NewIRI("http://e/p0"), rdf.NewIRI("http://e/p1"), rdf.NewIRI("http://e/p2"),
	}
	objects := append([]rdf.Term{rdf.NewInteger(0), rdf.NewInteger(1), rdf.NewInteger(2)}, subjects...)
	return TriplePattern{S: mkNode(subjects), P: mkNode(preds), O: mkNode(objects)}
}

func TestBGPDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 300; trial++ {
		g, triples := randomGraph(rng, 3+rng.Intn(25))
		nPatterns := 1 + rng.Intn(3)
		patterns := make([]TriplePattern, nPatterns)
		varSet := map[string]bool{}
		for i := range patterns {
			patterns[i] = randomPattern(rng)
			for v := range patterns[i].Vars {
				varSet[v] = true
			}
		}
		var vars []string
		for v := range varSet {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		// Engine evaluation.
		gp := &GroupPattern{}
		for i := range patterns {
			tp := patterns[i]
			gp.Elems = append(gp.Elems, PatternElem{Triple: &tp})
		}
		ev := newEvaluator(context.Background(), g, Options{})
		engine := groupBindings(ev, gp)
		// Reference evaluation.
		ref := naiveBGP(triples, patterns)
		got := canonical(engine, vars)
		want := canonical(ref, vars)
		if len(got) != len(want) {
			t.Fatalf("trial %d: engine %d rows, reference %d rows\npatterns: %v",
				trial, len(got), len(want), patterns)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: row %d differs:\n  engine:    %q\n  reference: %q\npatterns: %v",
					trial, i, got[i], want[i], patterns)
			}
		}
	}
}

// TestFilterDifferential: numeric FILTER conditions agree with direct
// post-filtering of the naive results.
func TestFilterDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		g, triples := randomGraph(rng, 5+rng.Intn(20))
		tp := TriplePattern{S: Var("a"), P: TermNode(rdf.NewIRI("http://e/p0")), O: Var("b")}
		threshold := int64(rng.Intn(3))
		src := fmt.Sprintf(
			`SELECT ?a ?b WHERE { ?a <http://e/p0> ?b . FILTER(?b >= %d) }`, threshold)
		res, err := Select(g, src)
		if err != nil {
			t.Fatal(err)
		}
		// Reference: naive + manual filter.
		var want int
		for _, b := range naiveBGP(triples, []TriplePattern{tp}) {
			if n, ok := b["b"].Int(); ok && n >= threshold {
				want++
			}
		}
		if res.Len() != want {
			t.Fatalf("trial %d: engine %d rows, reference %d", trial, res.Len(), want)
		}
	}
}

// TestPushdownDifferential: filter pushdown must not change results, for
// random graphs, patterns and filter positions — including filters placed
// *before* the patterns binding their variables, OPTIONAL interactions and
// BOUND conditions.
func TestPushdownDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	queries := []string{
		`SELECT ?a ?b WHERE { FILTER(?b >= 1) ?a <http://e/p0> ?b . }`,
		`SELECT ?a ?b WHERE { ?a <http://e/p0> ?b . FILTER(?b >= 1) ?a <http://e/p1> ?c . }`,
		`SELECT ?a WHERE { ?a <http://e/p0> ?b . OPTIONAL { ?a <http://e/p1> ?c } FILTER(!BOUND(?c)) }`,
		`SELECT ?a WHERE { ?a <http://e/p0> ?b . OPTIONAL { ?a <http://e/p1> ?c } FILTER(BOUND(?c)) }`,
		`SELECT ?a WHERE { { ?a <http://e/p0> ?b } UNION { ?a <http://e/p1> ?b } FILTER(?b != 0) }`,
		`SELECT ?a WHERE { ?a <http://e/p0> ?b . FILTER(?b = ?c) ?a <http://e/p2> ?c . }`,
	}
	for trial := 0; trial < 60; trial++ {
		g, _ := randomGraph(rng, 5+rng.Intn(25))
		for _, src := range queries {
			q := MustParse(src)
			with, err := ExecSelect(g, q)
			if err != nil {
				t.Fatal(err)
			}
			without, err := ExecSelectOpts(g, q, Options{NoPushdown: true})
			if err != nil {
				t.Fatal(err)
			}
			a := canonical(bindings(with), with.Vars)
			b := canonical(bindings(without), without.Vars)
			if len(a) != len(b) {
				t.Fatalf("trial %d %q: pushdown %d rows, plain %d", trial, src, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("trial %d %q: row %d differs\n%q\n%q", trial, src, i, a[i], b[i])
				}
			}
		}
	}
}

// BenchmarkFilterPushdown — ablation: early filter application vs
// group-end filtering on a selective filter over a large intermediate join.
func BenchmarkFilterPushdown(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("@prefix ex: <http://e/> .\n")
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&sb, "ex:s%d ex:v %d .\n", i, i)
		fmt.Fprintf(&sb, "ex:s%d ex:link ex:t%d .\n", i, i%50)
		fmt.Fprintf(&sb, "ex:t%d ex:w %d .\n", i%50, i%50)
	}
	g := rdf.MustLoadTurtle(sb.String())
	q := MustParse(`PREFIX ex: <http://e/>
SELECT ?s ?w WHERE {
  ?s ex:v ?v .
  FILTER(?v < 10)
  ?s ex:link ?t .
  ?t ex:w ?w .
}`)
	b.Run("pushdown", func(b *testing.B) {
		for b.Loop() {
			if _, err := ExecSelect(g, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("group-end", func(b *testing.B) {
		for b.Loop() {
			if _, err := ExecSelectOpts(g, q, Options{NoPushdown: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestAggregateDifferential: SUM/COUNT per group agree with manual
// aggregation of naive results.
func TestAggregateDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		g, triples := randomGraph(rng, 5+rng.Intn(30))
		src := `SELECT ?a (COUNT(?b) AS ?n) WHERE { ?a <http://e/p1> ?b } GROUP BY ?a`
		res, err := Select(g, src)
		if err != nil {
			t.Fatal(err)
		}
		tp := TriplePattern{S: Var("a"), P: TermNode(rdf.NewIRI("http://e/p1")), O: Var("b")}
		want := map[rdf.Term]int64{}
		for _, b := range naiveBGP(triples, []TriplePattern{tp}) {
			want[b["a"]]++
		}
		if res.Len() != len(want) {
			t.Fatalf("trial %d: %d groups, want %d", trial, res.Len(), len(want))
		}
		for _, row := range bindings(res) {
			n, _ := row["n"].Int()
			if n != want[row["a"]] {
				t.Fatalf("trial %d: group %v count %d, want %d", trial, row["a"], n, want[row["a"]])
			}
		}
	}
}
