package sparql

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"rdfanalytics/internal/rdf"
)

// Differential tests for the parallel ID-space engine: evaluation with
// Parallelism: 1 and Parallelism: 8 must produce identical Results — the
// same rows in the same order — for every query. This is the contract that
// makes Options.Parallelism a pure ablation knob.

// chainGraph builds a three-hop graph large enough that intermediate
// binding sets cross parallelThreshold, so the partitioned paths (and the
// hash-join strategy) actually execute.
func chainGraph(n int) *rdf.Graph {
	var sb strings.Builder
	sb.WriteString("@prefix ex: <http://e/> .\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "ex:s%d ex:v %d .\n", i, i)
		fmt.Fprintf(&sb, "ex:s%d ex:link ex:t%d .\n", i, i%50)
		fmt.Fprintf(&sb, "ex:t%d ex:w %d .\n", i%50, i%50)
		if i%3 == 0 {
			fmt.Fprintf(&sb, "ex:s%d ex:tag ex:hot .\n", i)
		}
	}
	return rdf.MustLoadTurtle(sb.String())
}

var parallelCorpus = []string{
	`PREFIX ex: <http://e/> SELECT ?s ?v WHERE { ?s ex:v ?v }`,
	`PREFIX ex: <http://e/> SELECT ?s ?w WHERE { ?s ex:v ?v . ?s ex:link ?t . ?t ex:w ?w }`,
	`PREFIX ex: <http://e/> SELECT ?s ?w WHERE { ?s ex:link ?t . ?t ex:w ?w . FILTER(?w < 25) }`,
	`PREFIX ex: <http://e/> SELECT DISTINCT ?t WHERE { ?s ex:tag ex:hot . ?s ex:link ?t }`,
	`PREFIX ex: <http://e/> SELECT ?t (SUM(?v) AS ?total) WHERE { ?s ex:v ?v . ?s ex:link ?t } GROUP BY ?t ORDER BY ?t`,
	`PREFIX ex: <http://e/> SELECT ?s ?n WHERE { ?s ex:v ?n . OPTIONAL { ?s ex:tag ?g } } ORDER BY ?n LIMIT 40`,
	`PREFIX ex: <http://e/> SELECT ?s WHERE { { ?s ex:tag ex:hot } UNION { ?s ex:w ?w } }`,
	`PREFIX ex: <http://e/> SELECT ?a ?b WHERE { ?a ex:link ?x . ?b ex:link ?x . FILTER(?a != ?b) } LIMIT 200`,
	`PREFIX ex: <http://e/> SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 500`,
}

func TestParallelDifferentialCorpus(t *testing.T) {
	graphs := map[string]*rdf.Graph{
		"invoices": invoices(t),
		"chain":    chainGraph(600),
	}
	for name, g := range graphs {
		for _, src := range parallelCorpus {
			q := MustParse(src)
			seq, err := ExecSelectOpts(g, q, Options{Parallelism: 1})
			if err != nil {
				t.Fatalf("%s %q: sequential: %v", name, src, err)
			}
			parR, err := ExecSelectOpts(g, q, Options{Parallelism: 8})
			if err != nil {
				t.Fatalf("%s %q: parallel: %v", name, src, err)
			}
			assertSameResults(t, name+" "+src, seq, parR)
		}
	}
}

func assertSameResults(t *testing.T, label string, seq, parR *Results) {
	t.Helper()
	if !reflect.DeepEqual(seq.Vars, parR.Vars) {
		t.Fatalf("%s: vars differ: %v vs %v", label, seq.Vars, parR.Vars)
	}
	if len(seq.Rows) != len(parR.Rows) {
		t.Fatalf("%s: sequential %d rows, parallel %d rows", label, len(seq.Rows), len(parR.Rows))
	}
	for i := range bindings(seq) {
		if !reflect.DeepEqual(seq.Rows[i], parR.Rows[i]) {
			t.Fatalf("%s: row %d differs (order or content):\n  seq: %v\n  par: %v",
				label, i, seq.Rows[i], parR.Rows[i])
		}
	}
}

// TestParallelDifferentialRandom repeats the random-BGP differential at
// both parallelism levels and additionally demands order equality between
// them (the naive reference fixes the multiset; the levels must also agree
// on sequence).
func TestParallelDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(271))
	for trial := 0; trial < 150; trial++ {
		g, triples := randomGraph(rng, 5+rng.Intn(25))
		nPatterns := 1 + rng.Intn(3)
		patterns := make([]TriplePattern, nPatterns)
		for i := range patterns {
			patterns[i] = randomPattern(rng)
		}
		gp := &GroupPattern{}
		for i := range patterns {
			tp := patterns[i]
			gp.Elems = append(gp.Elems, PatternElem{Triple: &tp})
		}
		seq := groupBindings(newEvaluator(context.Background(), g, Options{Parallelism: 1}), gp)
		parR := groupBindings(newEvaluator(context.Background(), g, Options{Parallelism: 8}), gp)
		if len(seq) != len(parR) {
			t.Fatalf("trial %d: sequential %d rows, parallel %d\npatterns: %v",
				trial, len(seq), len(parR), patterns)
		}
		for i := range seq {
			if !reflect.DeepEqual(seq[i], parR[i]) {
				t.Fatalf("trial %d: row %d differs between parallelism levels\n  seq: %v\n  par: %v\npatterns: %v",
					trial, i, seq[i], parR[i], patterns)
			}
		}
		// And both must agree with the naive reference on the multiset.
		varSet := map[string]bool{}
		for i := range patterns {
			for _, v := range patterns[i].Vars() {
				varSet[v] = true
			}
		}
		vars := make([]string, 0, len(varSet))
		for v := range varSet {
			vars = append(vars, v)
		}
		ref := naiveBGP(triples, patterns)
		got := canonical(parR, vars)
		want := canonical(ref, vars)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: engine disagrees with naive reference\npatterns: %v", trial, patterns)
		}
	}
}

// TestReorderInvariance: without a feedback store, planning is a function of
// the query and the graph alone — running queries must not change the order
// planBGP picks, its cost, or the estimates it was priced with.
func TestReorderInvariance(t *testing.T) {
	g := chainGraph(300)
	q := MustParse(`PREFIX ex: <http://e/>
SELECT ?s ?w WHERE { ?s ex:v ?v . ?s ex:link ?t . ?t ex:w ?w . ?s ex:tag ex:hot }`)
	var run []*TriplePattern
	for _, e := range q.Where.Elems {
		run = append(run, e.Triple)
	}
	plan := func() string {
		ev := newEvaluator(context.Background(), g, Options{})
		ev.sc = selectScope(q)
		p, _ := ev.planBGP(ev.planRun(run), run, 0, 1)
		out := fmt.Sprintf("order=%s cost=%v", p.order(), p.cost)
		for _, st := range p.steps {
			out += fmt.Sprintf(" %d", st.card)
		}
		return out
	}
	cold := plan()
	if strings.HasPrefix(cold, "order=1→2→3→4") {
		t.Fatalf("the search kept the textual order, which starts with a full scan: %s", cold)
	}
	for i := 0; i < 3; i++ {
		if _, err := ExecSelect(g, q); err != nil {
			t.Fatal(err)
		}
		if warm := plan(); warm != cold {
			t.Fatalf("plan changed after evaluation:\ncold: %s\nwarm: %s", cold, warm)
		}
	}
}

// TestStrategySelection pins the heuristic's behavior at its boundaries and
// checks that both strategies are actually reachable from real queries.
func TestStrategySelection(t *testing.T) {
	cases := []struct {
		est, inputLen, nJoinVars int
		mixed                    bool
		want                     joinStrategy
	}{
		{est: 1000, inputLen: 4, nJoinVars: 1, mixed: false, want: strategyNestedLoop},     // tiny input
		{est: 10, inputLen: 100, nJoinVars: 1, mixed: false, want: strategyHashJoin},       // selective build side
		{est: 100000, inputLen: 100, nJoinVars: 1, mixed: false, want: strategyNestedLoop}, // huge build side
		{est: 100000, inputLen: 100, nJoinVars: 0, mixed: false, want: strategyHashJoin},   // cross product
		{est: 10, inputLen: 100, nJoinVars: 1, mixed: true, want: strategyNestedLoop},      // mixed boundness
	}
	for _, c := range cases {
		if got := chooseStrategy(c.est, c.inputLen, c.nJoinVars, c.mixed); got != c.want {
			t.Errorf("chooseStrategy(%d, %d, %d, %v) = %v, want %v",
				c.est, c.inputLen, c.nJoinVars, c.mixed, got, c.want)
		}
	}
	// A multi-hop query over a large graph must show both strategies in its
	// plan: the first scan feeds enough rows that a selective second pattern
	// switches to hash join.
	g := chainGraph(600)
	plan, err := ExplainOpts(g, `PREFIX ex: <http://e/>
SELECT ?s ?w WHERE { ?s ex:v ?v . ?s ex:link ?t . ?t ex:w ?w }`, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "hash join") {
		t.Errorf("plan shows no hash join:\n%s", plan)
	}
	if !strings.Contains(plan, "workers: 4") {
		t.Errorf("plan does not report worker count:\n%s", plan)
	}
}
