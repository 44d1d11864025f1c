package sparql

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"rdfanalytics/internal/rdf"
)

// Differential tests for the engine under concurrency. A query runs on the
// goroutine that calls it, and many queries run at once over one shared
// graph (the server's traffic): each must return the rows, in the order, it
// returns alone.

// chainGraph builds a three-hop graph large enough that intermediate binding
// sets fill many rows and the hash-join strategy actually executes.
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

// TestParallelDifferentialCorpus: every corpus query, run by several
// goroutines at once over one shared graph — each goroutine walking the
// corpus from a different start, so different queries overlap — returns in
// every run the rows a lone run returned, in the same order. Under -race it
// also shows that concurrent queries share nothing but the graph and the
// block pool.
func TestParallelDifferentialCorpus(t *testing.T) {
	const goroutines, rounds = 4, 3
	for name, g := range map[string]*rdf.Graph{"invoices": invoices(t), "chain": chainGraph(600)} {
		qs := make([]*Query, len(parallelCorpus))
		lone := make([]*Results, len(parallelCorpus))
		for i, src := range parallelCorpus {
			qs[i] = MustParse(src)
			res, err := ExecSelect(g, qs[i])
			if err != nil {
				t.Fatalf("%s %q: %v", name, src, err)
			}
			lone[i] = res
		}
		got := make([][]*Results, goroutines)
		errs := make([]error, goroutines)
		var wg sync.WaitGroup
		for w := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range rounds * len(qs) {
					i := (w + k) % len(qs)
					res, err := ExecSelect(g, qs[i])
					if err != nil {
						errs[w] = fmt.Errorf("%q: %w", parallelCorpus[i], err)
						return
					}
					got[w] = append(got[w], res)
				}
			}()
		}
		wg.Wait()
		for w := range goroutines {
			if errs[w] != nil {
				t.Fatalf("%s, goroutine %d: %v", name, w, errs[w])
			}
			for k, res := range got[w] {
				i := (w + k) % len(qs)
				assertSameResults(t, fmt.Sprintf("%s, goroutine %d, run %d: %s", name, w, k, parallelCorpus[i]), lone[i], res)
			}
		}
	}
}

// assertSameResults demands the same variables and the same rows in the same
// order.
func assertSameResults(t *testing.T, label string, want, got *Results) {
	t.Helper()
	if !reflect.DeepEqual(want.Vars, got.Vars) {
		t.Fatalf("%s: vars differ: %v vs %v", label, want.Vars, got.Vars)
	}
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("%s: want %d rows, got %d rows", label, len(want.Rows), len(got.Rows))
	}
	for i := range want.Rows {
		if !reflect.DeepEqual(want.Rows[i], got.Rows[i]) {
			t.Fatalf("%s: row %d differs (order or content):\n  want: %v\n  got:  %v",
				label, i, want.Rows[i], got.Rows[i])
		}
	}
}

// TestParallelDifferentialRandom: random BGPs over random graphs give the
// naive reference's multiset of solutions.
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
		rows := groupBindings(newEvaluator(context.Background(), g, Options{}), gp)
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
		got := canonical(rows, vars)
		want := canonical(ref, vars)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: engine disagrees with naive reference\npatterns: %v", trial, patterns)
		}
	}
}

// TestReorderInvariance: planning is a function of the query and the graph
// alone — running queries must not change the order
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
		p := ev.planBGP(ev.planRun(run), 0, 1)
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
	plan, err := Explain(g, `PREFIX ex: <http://e/>
SELECT ?s ?w WHERE { ?s ex:v ?v . ?s ex:link ?t . ?t ex:w ?w }`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "hash join") {
		t.Errorf("plan shows no hash join:\n%s", plan)
	}
}
