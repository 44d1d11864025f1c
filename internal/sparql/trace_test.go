package sparql

import (
	"testing"

	"rdfanalytics/internal/obs"
	"rdfanalytics/internal/rdf"
)

// Differential test for the caller's trace: evaluation with Options.Trace set
// must produce exactly the same Results — same vars, same rows in the same
// order — as evaluation without it. The trace only records, never steers, and
// the engine adds no spans of its own to it.
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
			if n := len(tr.Export().Children); n != 0 {
				t.Fatalf("%s %q: engine added %d spans to the caller's trace", gname, src, n)
			}
		}
	}
}
