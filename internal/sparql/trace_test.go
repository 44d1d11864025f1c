package sparql

import (
	"strings"
	"testing"

	"rdfanalytics/internal/obs"
	"rdfanalytics/internal/rdf"
)

// Differential test for the tracing layer: evaluation with Options.Trace set
// must produce exactly the same Results — same vars, same rows in the same
// order — as evaluation without it. Tracing only records, never steers.
func TestTraceDifferential(t *testing.T) {
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
				t.Fatalf("%s %q: untraced: %v", gname, src, err)
			}
			tr := obs.NewTrace("query")
			traced, err := ExecSelectOpts(g, q, Options{Trace: tr})
			tr.Finish()
			if err != nil {
				t.Fatalf("%s %q: traced: %v", gname, src, err)
			}
			assertSameResults(t, gname+" "+src, plain, traced)
			if tr.Root().Duration() <= 0 {
				t.Fatalf("%s %q: trace root has no duration", gname, src)
			}
		}
	}
}

// TestTraceSpansRecorded checks the span tree for a join query contains the
// phases the telemetry contract promises: match → bgp → plan + scan, plus
// modifiers, with row counts and a join strategy attached.
func TestTraceSpansRecorded(t *testing.T) {
	g := chainGraph(300)
	q := MustParse(`PREFIX ex: <http://e/>
SELECT ?s ?w WHERE { ?s ex:v ?v . ?s ex:link ?t . ?t ex:w ?w . FILTER(?w < 40) } ORDER BY ?s LIMIT 20`)
	tr := obs.NewTrace("query")
	if _, err := ExecSelectOpts(g, q, Options{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	tr.Finish()

	names := map[string]int{}
	var walk func(s *obs.SpanJSON)
	walk = func(s *obs.SpanJSON) {
		names[s.Name]++
		for i := range s.Children {
			walk(&s.Children[i])
		}
	}
	exported := tr.Export()
	walk(&exported)

	for _, want := range []string{"match", "bgp", "plan", "scan", "filter", "modifiers"} {
		if names[want] == 0 {
			t.Errorf("span %q missing from trace:\n%s", want, tr.Tree())
		}
	}
	if names["scan"] < 3 {
		t.Errorf("expected one scan span per triple pattern (3), got %d", names["scan"])
	}

	tree := tr.Tree()
	// order= holds textual positions: the plan starts with the third pattern.
	for _, frag := range []string{"strategy=", "rows_out=", "order=3→2→1", "cost="} {
		if !strings.Contains(tree, frag) {
			t.Errorf("trace tree missing %q:\n%s", frag, tree)
		}
	}
	if strings.Contains(tree, "planner=") {
		t.Errorf("the plan span still names a planner mode:\n%s", tree)
	}
}

// TestTraceOptionalUnionSpans drives the OPTIONAL/UNION/path/MINUS code
// paths and checks their spans appear in the tree.
func TestTraceOptionalUnionSpans(t *testing.T) {
	g := chainGraph(300)
	for src, want := range map[string]string{
		`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:v ?n . OPTIONAL { ?s ex:tag ?g } } LIMIT 10`: "optional",
		`PREFIX ex: <http://e/> SELECT ?s WHERE { { ?s ex:tag ex:hot } UNION { ?s ex:w ?w } }`:       "union",
		`PREFIX ex: <http://e/> SELECT ?s ?w WHERE { ?s ex:link/ex:w ?w } LIMIT 5`:                   "path_scan",
		`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:v ?v . MINUS { ?s ex:tag ex:hot } }`:         "minus",
	} {
		tr := obs.NewTrace("query")
		if _, err := ExecSelectOpts(g, MustParse(src), Options{Trace: tr}); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		tr.Finish()
		if !strings.Contains(tr.Tree(), want) {
			t.Errorf("%q: span %q missing:\n%s", src, want, tr.Tree())
		}
	}
}
