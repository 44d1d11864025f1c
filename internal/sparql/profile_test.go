package sparql

import (
	"strings"
	"testing"

	"rdfanalytics/internal/rdf"
)

// findProfNodes returns every node of the profile tree with the given op,
// in tree order.
func findProfNodes(p *Profile, op string) []*ProfNode {
	var out []*ProfNode
	var walk func(n *ProfNode)
	walk = func(n *ProfNode) {
		if n.Op == op {
			out = append(out, n)
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(p.Root())
	return out
}

// TestProfileDifferential proves profiling never changes results: the same
// corpus the tracer differential uses, evaluated with and without a
// profile, row for row.
func TestProfileDifferential(t *testing.T) {
	corp := append([]string{}, parallelCorpus...)
	corp = append(corp,
		`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:v ?v . MINUS { ?s ex:tag ex:hot } } LIMIT 50`,
		`PREFIX ex: <http://e/> SELECT ?s ?w WHERE { ?s ex:link/ex:w ?w } ORDER BY ?s ?w LIMIT 50`,
		`PREFIX ex: <http://e/> SELECT ?t (COUNT(?s) AS ?n) WHERE { { SELECT ?s ?t WHERE { ?s ex:link ?t } } } GROUP BY ?t ORDER BY ?t`,
	)
	for gname, g := range map[string]*rdf.Graph{
		"invoices": invoices(t),
		"chain":    chainGraph(300),
	} {
		for _, src := range corp {
			q := MustParse(src)
			plain, err := ExecSelectOpts(g, q, Options{})
			if err != nil {
				t.Fatalf("%s %q: unprofiled: %v", gname, src, err)
			}
			prof := NewProfile("query")
			profiled, err := ExecSelectOpts(g, q, Options{Profile: prof})
			if err != nil {
				t.Fatalf("%s %q: profiled: %v", gname, src, err)
			}
			assertSameResults(t, gname+" "+src, plain, profiled)
			if prof.Root().Calls != 1 || prof.Root().Dur <= 0 {
				t.Fatalf("%s %q: profile root not recorded: %+v", gname, src, prof.Root())
			}
		}
	}
}

// TestProfileEstimatesFromStatsCache pins the provenance of the profile's
// cardinality estimates: a scan node's EstRows must be exactly the
// graph count for the pattern's constant positions
// (rdf.Graph.MatchCountIDs — the same number the planner ordered with),
// and its q-error must be max(est/act, act/est).
func TestProfileEstimatesFromStatsCache(t *testing.T) {
	g := chainGraph(300)
	prof := NewProfile("query")
	q := MustParse(`PREFIX ex: <http://e/> SELECT ?s ?w WHERE { ?s ex:link ?t . ?t ex:w ?w }`)
	res, err := ExecSelectOpts(g, q, Options{Profile: prof, NoReorder: true})
	if err != nil {
		t.Fatal(err)
	}
	scans := findProfNodes(prof, "scan")
	if len(scans) != 2 {
		t.Fatalf("want 2 scan nodes, got %d\n%s", len(scans), prof.Tree())
	}
	link, _ := g.TermID(rdf.NewIRI("http://e/link"))
	w, _ := g.TermID(rdf.NewIRI("http://e/w"))
	wantEsts := []int{
		g.MatchCountIDs(0, link, 0), // scan 1: ?s ex:link ?t, constants only
		g.MatchCountIDs(0, w, 0),    // scan 2: ?t ex:w ?w
	}
	for i, sc := range scans {
		if sc.EstRows != int64(wantEsts[i]) {
			t.Errorf("scan %d (%s): EstRows = %d, want graph count %d",
				i, sc.Label, sc.EstRows, wantEsts[i])
		}
		// q-error must be the symmetric ratio of the graph-count estimate
		// and the actual output cardinality.
		e, a := float64(sc.EstRows), float64(sc.RowsOut)
		if e < 1 {
			e = 1
		}
		if a < 1 {
			a = 1
		}
		want := e / a
		if a/e > want {
			want = a / e
		}
		if got := sc.QError(); got != want {
			t.Errorf("scan %d: QError = %v, want max(est/act, act/est) = %v", i, got, want)
		}
	}
	// The second pattern's constants-only estimate is 50 distinct ex:w
	// triples while the join actually produces one row per chain row — a
	// real misestimate the q-error must surface as > 1.
	if scans[1].QError() <= 1 {
		t.Errorf("scan 2: expected a misestimate (q-error > 1), got %v", scans[1].QError())
	}
	if len(res.Rows) == 0 {
		t.Fatal("query returned no rows")
	}
}

func TestQErrorFormula(t *testing.T) {
	cases := []struct {
		est, act int64
		want     float64
	}{
		{100, 100, 1},
		{10, 100, 10},
		{100, 10, 10},
		{0, 50, 50}, // empty estimate clamps to 1
		{50, 0, 50}, // empty actual clamps to 1
		{0, 0, 1},
	}
	for _, c := range cases {
		if got := QError(c.est, c.act); got != c.want {
			t.Errorf("QError(%d, %d) = %v, want %v", c.est, c.act, got, c.want)
		}
	}
}

// TestExplainAnalyzeAggregateOverPath drives the headline acceptance case:
// EXPLAIN ANALYZE of an aggregation over a property path prints a tree
// whose operator nodes carry actual rows, wall time, and (on scans)
// estimated-vs-actual cardinality.
func TestExplainAnalyzeAggregateOverPath(t *testing.T) {
	g := chainGraph(300)
	out, err := ExplainAnalyze(g, `PREFIX ex: <http://e/>
SELECT ?t (COUNT(?s) AS ?n) WHERE { ?s ex:link+ ?t . ?t ex:w ?w } GROUP BY ?t ORDER BY ?t`, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"match", "path_scan", "scan", "aggregate", "modifiers",
		"calls=", "rows=", "est=", "act=", "q-err=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, out)
		}
	}
	// Every line must carry a wall-time suffix.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if !strings.Contains(line, "µs") && !strings.Contains(line, "ms") && !strings.Contains(line, "s") {
			t.Errorf("EXPLAIN ANALYZE line missing wall time: %q", line)
		}
	}
}

// TestProfileAggregatesRepeatedCalls checks that per-binding re-evaluation
// (the OPTIONAL body runs once per input row) folds into one node with a
// call count instead of growing the tree.
func TestProfileAggregatesRepeatedCalls(t *testing.T) {
	g := chainGraph(100)
	prof := NewProfile("query")
	q := MustParse(`PREFIX ex: <http://e/> SELECT ?s ?w WHERE { ?s ex:v ?v . OPTIONAL { ?s ex:link ?t . ?t ex:w ?w } }`)
	if _, err := ExecSelectOpts(g, q, Options{Profile: prof}); err != nil {
		t.Fatal(err)
	}
	opts := findProfNodes(prof, "optional")
	if len(opts) != 1 {
		t.Fatalf("want 1 optional node, got %d", len(opts))
	}
	var inner []*ProfNode
	for _, n := range findProfNodes(prof, "bgp") {
		if n.Calls > 1 {
			inner = append(inner, n)
		}
	}
	if len(inner) == 0 {
		t.Fatalf("expected an aggregated inner bgp node with calls > 1:\n%s", prof.Tree())
	}
}

func TestProfileExport(t *testing.T) {
	g := chainGraph(50)
	prof := NewProfile("query")
	q := MustParse(`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:link ?t } LIMIT 5`)
	if _, err := ExecSelectOpts(g, q, Options{Profile: prof}); err != nil {
		t.Fatal(err)
	}
	exp := prof.Export()
	if exp == nil || exp.Op != "query" || len(exp.Children) == 0 {
		t.Fatalf("export malformed: %+v", exp)
	}
	ests := prof.Estimates()
	if len(ests) == 0 {
		t.Fatal("expected at least one estimate-carrying operator")
	}
	if prof.MaxQError() < 1 {
		t.Errorf("MaxQError = %v, want >= 1", prof.MaxQError())
	}
	var nilProf *Profile
	if nilProf.Export() != nil || nilProf.Tree() != "" || nilProf.Estimates() != nil || nilProf.MaxQError() != 0 {
		t.Error("nil profile must be a no-op")
	}
}

// BenchmarkProfileOverhead measures the evaluator with profiling off (the
// nil-safe no-op path — one pointer test per site) against profiling on.
func BenchmarkProfileOverhead(b *testing.B) {
	g := chainGraph(300)
	q := MustParse(`PREFIX ex: <http://e/> SELECT ?s ?w WHERE { ?s ex:v ?v . ?s ex:link ?t . ?t ex:w ?w . FILTER(?w < 40) } ORDER BY ?s LIMIT 20`)
	b.Run("off", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ExecSelectOpts(g, q, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("on", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ExecSelectOpts(g, q, Options{Profile: NewProfile("query")}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
