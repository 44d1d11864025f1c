package sparql

import (
	"fmt"
	"strings"
	"testing"

	"rdfanalytics/internal/rdf"
)

// profiled runs the SELECT src over g with the profiler on: the plan as it
// ran, which is what EXPLAIN ANALYZE prints.
func profiled(t *testing.T, g *rdf.Graph, src string, opts Options) *Profile {
	t.Helper()
	opts.Profile = NewProfile("query")
	if _, err := ExecSelectOpts(g, MustParse(src), opts); err != nil {
		t.Fatal(err)
	}
	return opts.Profile
}

// scansRan lists the profile's scans in the order they first ran, each as
// "<pattern> est=<graph count> [<join type>]".
func scansRan(p *Profile) []string {
	var out []string
	for _, sc := range findProfNodes(p, "scan") {
		out = append(out, fmt.Sprintf("%s est=%d [%s]", sc.Label, sc.EstRows, sc.Strategy))
	}
	return out
}

// TestExplainJoinOrder: the selective pattern (delivers fanta, graph count
// 1) runs before the full scan, and its scan carries that estimate.
func TestExplainJoinOrder(t *testing.T) {
	g := invoices(t)
	src := `PREFIX ex: <http://e/>
SELECT ?i WHERE {
  ?i ?p ?o .
  ?i ex:delivers ex:fanta .
}`
	q, prof := MustParse(src), profiled(t, g, src, Options{})
	scans := findProfNodes(prof, "scan")
	if len(scans) != 2 || scans[0].Label != q.Where.Elems[1].Triple.String() || scans[1].Label != q.Where.Elems[0].Triple.String() {
		t.Fatalf("selective pattern not first:\n%s", prof.Tree())
	}
	if scans[0].EstRows != 1 {
		t.Errorf("fanta scan est=%d, want 1:\n%s", scans[0].EstRows, prof.Tree())
	}
}

// TestExplainClauses: the profile holds every clause that ran — a filter
// inside the run (a node of the bgp, next to its scans) and one at group end
// (BOUND waits for the group), the OPTIONAL, subquery, MINUS and UNION
// nodes, and the grouping and solution modifiers: three branches grouped,
// and OFFSET 1 LIMIT 5 leaving two.
func TestExplainClauses(t *testing.T) {
	g := invoices(t)
	prof := profiled(t, g, `PREFIX ex: <http://e/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
SELECT DISTINCT ?b (SUM(?q) AS ?t) WHERE {
  ?i ex:takesPlaceAt ?b .
  ?i ex:inQuantity ?q .
  FILTER(?q > 10)
  OPTIONAL { ?i ex:delivers ?n }
  FILTER(BOUND(?n))
  { SELECT ?z WHERE { ?z ex:brand ?w } }
  BIND(?q * 2 AS ?qq)
  VALUES ?v { 1 2 }
  MINUS { ?i ex:hasDate "2021-01-10"^^xsd:date }
  { ?i ex:delivers ex:coca } UNION { ?i ex:delivers ex:pepsi }
} GROUP BY ?b HAVING (SUM(?q) > 0) ORDER BY ?b LIMIT 5 OFFSET 1`, Options{})
	for _, op := range []string{"optional", "subquery", "minus", "union", "aggregate", "modifiers"} {
		if nodes := findProfNodes(prof, op); len(nodes) == 0 || nodes[0].Calls == 0 {
			t.Errorf("profile has no %s node that ran:\n%s", op, prof.Tree())
		}
	}
	if agg, mods := findProfNodes(prof, "aggregate"), findProfNodes(prof, "modifiers"); len(agg) != 1 || agg[0].RowsOut != 3 ||
		mods[len(mods)-1].RowsIn != 3 || mods[len(mods)-1].RowsOut != 2 {
		t.Errorf("grouping or modifiers did not run as written:\n%s", prof.Tree())
	}
	inRun, groupEnd := false, false
	for _, bgp := range findProfNodes(prof, "bgp") {
		for _, f := range bgp.children {
			inRun = inRun || f.Op == "filter" && strings.HasPrefix(f.Label, "(?q > ")
		}
	}
	for _, m := range findProfNodes(prof, "match") {
		for _, f := range m.children {
			groupEnd = groupEnd || f.Op == "filter" && strings.HasPrefix(f.Label, "BOUND(")
		}
	}
	if !inRun || !groupEnd {
		t.Errorf("filters not placed in-run (%v) and at group end (%v):\n%s", inRun, groupEnd, prof.Tree())
	}
}

// TestExplainErrors: EXPLAIN ANALYZE refuses what is not a SELECT query.
func TestExplainErrors(t *testing.T) {
	g := invoices(t)
	if _, err := ExplainAnalyze(g, `ASK { ?s ?p ?o }`, Options{}); err == nil {
		t.Error("ASK accepted by ExplainAnalyze")
	}
	if _, err := ExplainAnalyze(g, `NOT A QUERY`, Options{}); err == nil {
		t.Error("garbage accepted by ExplainAnalyze")
	}
}

// TestExplainAnalyzeShowsTheFold: EXPLAIN ANALYZE of a grouped star query
// marks the one scan whose rows went straight to the group fold, next to its
// join type; with an OPTIONAL in the WHERE the fold reads a batch and no line
// is marked.
func TestExplainAnalyzeShowsTheFold(t *testing.T) {
	g := invoices(t)
	for _, c := range []struct {
		where string
		marks int
	}{
		{`?i ex:takesPlaceAt ?b . ?i ex:inQuantity ?q . FILTER(?q > 10)`, 1},
		{`?i ex:takesPlaceAt ?b . ?i ex:inQuantity ?q . OPTIONAL { ?i ex:delivers ?x }`, 0},
	} {
		out, err := ExplainAnalyze(g, `PREFIX ex: <http://e/> SELECT ?b (SUM(?q) AS ?t) WHERE { `+c.where+` } GROUP BY ?b`, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var marked []string
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "[fold]") {
				marked = append(marked, line)
			}
		}
		if len(marked) != c.marks {
			t.Fatalf("%s: %d lines marked [fold], want %d:\n%s", c.where, len(marked), c.marks, out)
		}
		for _, line := range marked {
			if !strings.HasPrefix(strings.TrimSpace(line), "scan ") || !strings.Contains(line, "] [fold]") {
				t.Errorf("%s: [fold] is not on a scan line, next to its join type: %q", c.where, line)
			}
		}
	}
}
