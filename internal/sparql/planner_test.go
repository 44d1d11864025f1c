package sparql

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"rdfanalytics/internal/rdf"
)

// plannerOptionSets are the ablation configurations every differential test
// runs: all must produce identical answers.
func plannerOptionSets() map[string]Options {
	return map[string]Options{
		"no-reorder": {NoReorder: true},
		"dp":         {},
		"dp-nopush":  {NoPushdown: true},
		"dp-replan":  {ReplanQError: 1e-9},
	}
}

// TestPlannerDifferential: the cost-based planners must agree with the naive
// reference evaluator on random conjunctive queries — same harness as
// TestBGPDifferential, wider pattern counts so both the DP and the
// per-subset bound propagation get exercised.
func TestPlannerDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 150; trial++ {
		g, triples := randomGraph(rng, 3+rng.Intn(25))
		nPatterns := 1 + rng.Intn(5)
		patterns := make([]TriplePattern, nPatterns)
		varSet := map[string]bool{}
		for i := range patterns {
			patterns[i] = randomPattern(rng)
			for _, v := range patterns[i].Vars() {
				varSet[v] = true
			}
		}
		var vars []string
		for v := range varSet {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		want := canonical(naiveBGP(triples, patterns), vars)
		for name, opts := range plannerOptionSets() {
			gp := &GroupPattern{}
			for i := range patterns {
				tp := patterns[i]
				gp.Elems = append(gp.Elems, PatternElem{Triple: &tp})
			}
			ev := newEvaluator(context.Background(), g, opts)
			got := canonical(groupBindings(ev, gp), vars)
			if len(got) != len(want) {
				t.Fatalf("trial %d [%s]: %d rows, reference %d\npatterns: %v",
					trial, name, len(got), len(want), patterns)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d [%s]: row %d differs:\n  got:  %q\n  want: %q\npatterns: %v",
						trial, name, i, got[i], want[i], patterns)
				}
			}
		}
	}
}

// TestPlannerClauseDifferential runs full queries — filters between
// patterns, VALUES/BIND-seeded estimates, OPTIONAL, MINUS, EXISTS,
// subqueries and aggregates — under every planner configuration and demands
// identical answers. This is the acceptance check that reordering, in-run
// filter pushdown and projection pruning never change semantics.
func TestPlannerClauseDifferential(t *testing.T) {
	queries := []string{
		`SELECT ?a ?b WHERE { ?a <http://e/p0> ?b . FILTER(?b >= 1) ?a <http://e/p1> ?c . }`,
		`SELECT ?a WHERE { ?a <http://e/p0> ?b . ?b <http://e/p1> ?c . ?c <http://e/p2> ?d . FILTER(?d != 0) }`,
		`SELECT ?b WHERE { ?a <http://e/p0> ?b . ?a <http://e/p1> ?c }`, // ?a, ?c prunable
		`SELECT ?a WHERE { VALUES ?b { <http://e/s0> <http://e/s1> } ?a <http://e/p0> ?b . ?a <http://e/p1> ?c }`,
		`SELECT ?a ?d WHERE { ?a <http://e/p0> ?b . BIND(?b AS ?d) ?a <http://e/p1> ?c . FILTER(?d = ?c) }`,
		`SELECT ?a WHERE { ?a <http://e/p0> ?b . OPTIONAL { ?a <http://e/p1> ?c } FILTER(!BOUND(?c)) }`,
		`SELECT ?a WHERE { ?a <http://e/p0> ?b . MINUS { ?a <http://e/p1> ?b } }`,
		`SELECT ?a WHERE { ?a <http://e/p0> ?b . FILTER EXISTS { ?a <http://e/p1> ?c } }`,
		`SELECT ?a WHERE { { SELECT ?a WHERE { ?a <http://e/p0> ?b } } ?a <http://e/p1> ?c . }`,
		`SELECT ?b (COUNT(?a) AS ?n) WHERE { ?a <http://e/p0> ?b . ?a <http://e/p1> ?c } GROUP BY ?b`,
		`SELECT DISTINCT ?a WHERE { { ?a <http://e/p0> ?b } UNION { ?a <http://e/p1> ?b } ?a <http://e/p2> ?c . }`,
		`SELECT * WHERE { ?a <http://e/p0> ?b . ?a <http://e/p1> ?c . FILTER(?b != ?c) }`,
	}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		g, _ := randomGraph(rng, 5+rng.Intn(25))
		for _, src := range queries {
			q := MustParse(src)
			base, err := ExecSelectOpts(g, q, Options{NoReorder: true, NoPushdown: true})
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			want := canonical(bindings(base), base.Vars)
			for name, opts := range plannerOptionSets() {
				res, err := ExecSelectOpts(g, q, opts)
				if err != nil {
					t.Fatalf("[%s] %s: %v", name, src, err)
				}
				got := canonical(bindings(res), res.Vars)
				if len(got) != len(want) {
					t.Fatalf("trial %d [%s] %s: %d rows, want %d", trial, name, src, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("trial %d [%s] %s: row %d differs\n  got:  %q\n  want: %q",
							trial, name, src, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestPlannerDeterminism: repeated planning of the same query must yield an
// identical plan (EXPLAIN text), in planned and in textual order.
func TestPlannerDeterminism(t *testing.T) {
	g := invoices(t)
	src := `PREFIX ex: <http://e/>
SELECT ?i ?b ?q ?p ?w WHERE {
  ?i ex:takesPlaceAt ?b .
  ?i ex:inQuantity ?q .
  ?i ex:delivers ?p .
  ?p ex:brand ?w .
}`
	for _, opts := range []Options{{}, {NoReorder: true}} {
		first, err := ExplainOpts(g, src, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			again, err := ExplainOpts(g, src, opts)
			if err != nil {
				t.Fatal(err)
			}
			if again != first {
				t.Fatalf("[%+v] plan not deterministic:\n--- first\n%s\n--- again\n%s", opts, first, again)
			}
		}
	}
}

// TestPlannerSelectiveFirst: the DP order must schedule the selective
// pattern before the full scan, and report it by textual position.
func TestPlannerSelectiveFirst(t *testing.T) {
	g := invoices(t)
	plan, err := ExplainOpts(g, `PREFIX ex: <http://e/>
SELECT ?i WHERE {
  ?i ?p ?o .
  ?i ex:delivers ex:fanta .
}`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fanta := strings.Index(plan, "fanta")
	scanAll := strings.Index(plan, "?i ?p ?o")
	if fanta < 0 || scanAll < 0 || fanta > scanAll {
		t.Errorf("selective pattern not first:\n%s", plan)
	}
	if !strings.Contains(plan, "(order=2→1, cost=") || strings.Contains(plan, "planner=") {
		t.Errorf("plan header does not read (order=2→1, cost=…):\n%s", plan)
	}
}

// replanGraph builds n subjects each carrying a 3-step property chain, so
// every pattern of a 3-pattern chain query matches n triples.
func replanGraph(n int) *rdf.Graph {
	g := rdf.NewGraph()
	for i := 0; i < n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://e/s%d", i))
		v := rdf.NewIRI(fmt.Sprintf("http://e/v%d", i))
		w := rdf.NewIRI(fmt.Sprintf("http://e/w%d", i))
		g.Add(rdf.Triple{S: s, P: rdf.NewIRI("http://e/p0"), O: v})
		g.Add(rdf.Triple{S: v, P: rdf.NewIRI("http://e/p1"), O: w})
		g.Add(rdf.Triple{S: w, P: rdf.NewIRI("http://e/p2"), O: rdf.NewInteger(int64(i))})
	}
	return g
}

const replanQuery = `SELECT ?a ?d WHERE {
  ?a <http://e/p0> ?b .
  ?b <http://e/p1> ?c .
  ?c <http://e/p2> ?d .
}`

// TestReplanTriggers: with an absurdly low q-error threshold every scan that
// produces >= replanMinRows rows re-plans the remaining patterns; the run
// must still return correct results and the profile must record the replans.
func TestReplanTriggers(t *testing.T) {
	g := replanGraph(100)
	q := MustParse(replanQuery)
	prof := NewProfile("query")
	res, err := ExecSelectOpts(g, q, Options{ReplanQError: 1e-9, Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 100 {
		t.Fatalf("rows = %d, want 100", res.Len())
	}
	if !strings.Contains(prof.Tree(), "replans=") {
		t.Fatalf("profile records no replans:\n%s", prof.Tree())
	}
}

// TestReplanDisabled: a negative ReplanQError switches adaptivity off.
func TestReplanDisabled(t *testing.T) {
	g := replanGraph(100)
	q := MustParse(replanQuery)
	prof := NewProfile("query")
	if _, err := ExecSelectOpts(g, q, Options{ReplanQError: -1, Profile: prof}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(prof.Tree(), "replans=") {
		t.Fatalf("replanning ran despite being disabled:\n%s", prof.Tree())
	}
}

// TestGreedyLookaheadLargeRun: runs beyond dpMaxPatterns fall back to the
// lookahead orderer and stay correct.
func TestGreedyLookaheadLargeRun(t *testing.T) {
	g := rdf.NewGraph()
	s := rdf.NewIRI("http://e/s")
	var sb strings.Builder
	sb.WriteString("SELECT ?v0 WHERE {\n")
	for i := 0; i < dpMaxPatterns+2; i++ {
		g.Add(rdf.Triple{S: s, P: rdf.NewIRI(fmt.Sprintf("http://e/q%d", i)), O: rdf.NewInteger(int64(i))})
		fmt.Fprintf(&sb, "  ?s <http://e/q%d> ?v%d .\n", i, i)
	}
	sb.WriteString("}")
	res, err := ExecSelectOpts(g, MustParse(sb.String()), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d, want 1", res.Len())
	}
}

// TestSelectScopeSlots verifies slot assignment and the reference count
// behind projection pruning: a variable the query mentions once — EXISTS
// patterns count — gets no slot, unless the query is SELECT *.
func TestSelectScopeSlots(t *testing.T) {
	sc := selectScope(MustParse(`SELECT ?b WHERE {
  ?a <http://e/p0> ?b .
  ?a <http://e/p1> ?c .
  FILTER EXISTS { ?d <http://e/p2> ?c }
}`))
	if want := []string{"b", "a", "c"}; !slices.Equal(sc.names, want) {
		t.Errorf("slots = %v, want %v", sc.names, want)
	}
	if sc.slot("d") != -1 {
		t.Error("?d is mentioned once and still has a slot")
	}
	if sc := selectScope(MustParse(`SELECT * WHERE { ?a ?p ?o }`)); len(sc.names) != 3 {
		t.Errorf("SELECT * slots = %v, want every variable", sc.names)
	}
}

// TestValuesSeededEstimates: a variable bound only by VALUES upstream must
// count as bound when ordering the run — the selective ?a p0 ?b scan with ?b
// pinned comes first instead of being costed as fully unbound.
func TestValuesSeededEstimates(t *testing.T) {
	g, _ := randomGraph(rand.New(rand.NewSource(5)), 30)
	src := `SELECT ?a WHERE {
  VALUES ?b { <http://e/s0> }
  ?a <http://e/p0> ?b .
  ?a <http://e/p1> ?c .
}`
	plan, err := Explain(g, src)
	if err != nil {
		t.Fatal(err)
	}
	p0 := strings.Index(plan, "p0")
	p1 := strings.Index(plan, "p1")
	if p0 < 0 || p1 < 0 || p0 > p1 {
		t.Errorf("VALUES-bound scan not scheduled first:\n%s", plan)
	}
}

// TestPlanOrderEmptyAndSingle covers the degenerate search inputs.
func TestPlanOrderEmptyAndSingle(t *testing.T) {
	g := invoices(t)
	res, err := ExecSelectOpts(g, MustParse(`PREFIX ex: <http://e/>
SELECT ?b WHERE { ?i ex:takesPlaceAt ?b }`), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 7 {
		t.Fatalf("rows = %d, want 7", res.Len())
	}
}
