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
			for v := range patterns[i].Vars {
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

// TestPlannerDeterminism: repeated runs of the same query must run an
// identical plan — the same scans in the same order, with the same
// estimates and join types —, in planned and in textual order.
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
		first := strings.Join(scansRan(profiled(t, g, src, opts)), "\n")
		for i := 0; i < 5; i++ {
			if again := strings.Join(scansRan(profiled(t, g, src, opts)), "\n"); again != first {
				t.Fatalf("[%+v] plan not deterministic:\n--- first\n%s\n--- again\n%s", opts, first, again)
			}
		}
	}
}

// TestPlannerSelectiveFirst: the DP order must schedule the selective
// pattern before the full scan: textual positions 2, 1.
func TestPlannerSelectiveFirst(t *testing.T) {
	g := invoices(t)
	src := `PREFIX ex: <http://e/>
SELECT ?i WHERE {
  ?i ?p ?o .
  ?i ex:delivers ex:fanta .
}`
	q := MustParse(src)
	ev := newEvaluator(context.Background(), g, Options{})
	ev.sc = selectScope(q)
	rp := ev.planRun([]*TriplePattern{q.Where.Elems[0].Triple, q.Where.Elems[1].Triple})
	if plan := ev.planBGP(rp, 0, 1); len(plan) != 2 || plan[0].pat != 1 || plan[1].pat != 0 {
		t.Errorf("plan runs patterns %v, want textual positions 2, 1", plan)
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
	prof := profiled(t, g, src, Options{})
	if scans := findProfNodes(prof, "scan"); len(scans) == 0 || !strings.Contains(scans[0].Label, "p0") {
		t.Errorf("VALUES-bound scan not scheduled first:\n%s", prof.Tree())
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
