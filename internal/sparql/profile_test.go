package sparql

import (
	"encoding/json"
	"strings"
	"testing"

	"rdfanalytics/internal/obs"
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

// TestProfileDifferential proves profiling never changes results: the
// parallel corpus plus MINUS, path and subquery queries, evaluated with and
// without a profile (and the caller's trace, which the profile links to),
// row for row.
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
			prof, tr := NewProfile("query"), obs.NewTrace("query")
			profiled, err := ExecSelectOpts(g, q, Options{Profile: prof, Trace: tr})
			if err != nil {
				t.Fatalf("%s %q: profiled: %v", gname, src, err)
			}
			assertSameResults(t, gname+" "+src, plain, profiled)
			if prof.Root().Calls != 1 || prof.Root().Dur <= 0 {
				t.Fatalf("%s %q: profile root not recorded: %+v", gname, src, prof.Root())
			}
			if prof.TraceID() != tr.ID() {
				t.Fatalf("%s %q: profile linked to trace %q, want %q", gname, src, prof.TraceID(), tr.ID())
			}
		}
	}
}

// TestProfileRecordsThePlan: a join query's profile holds the pipeline's
// operators — match, the bgp run, the in-run filter, the modifiers — and one
// scan per triple pattern with its estimate, join strategy and rows out, in
// the order the plan ran them.
func TestProfileRecordsThePlan(t *testing.T) {
	g := chainGraph(300)
	src := `PREFIX ex: <http://e/>
SELECT ?s ?w WHERE { ?s ex:v ?v . ?s ex:link ?t . ?t ex:w ?w . FILTER(?w < 40) } ORDER BY ?s LIMIT 20`
	q := MustParse(src)
	prof := NewProfile("query")
	if _, err := ExecSelectOpts(g, q, Options{Profile: prof}); err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"match", "bgp", "filter", "modifiers"} {
		if len(findProfNodes(prof, op)) == 0 {
			t.Errorf("profile has no %s node:\n%s", op, prof.Tree())
		}
	}
	// The plan starts with the third pattern: order=3→2→1.
	var ran, want []string
	for _, sc := range findProfNodes(prof, "scan") {
		if sc.Strategy == "" || sc.EstRows < 0 || sc.RowsOut == 0 {
			t.Errorf("scan %s lacks a strategy, an estimate or rows out:\n%s", sc.Label, prof.Tree())
		}
		ran = append(ran, sc.Label)
	}
	for _, i := range []int{2, 1, 0} {
		want = append(want, q.Where.Elems[i].Triple.String())
	}
	if strings.Join(ran, "\n") != strings.Join(want, "\n") {
		t.Errorf("scans ran as\n  %s\nwant\n  %s", strings.Join(ran, "\n  "), strings.Join(want, "\n  "))
	}
}

// TestModifiersCountTheirInput: the modifiers node counts every row that
// reaches ORDER BY/projection/DISTINCT/LIMIT as its input and the sliced
// answer as its output — also when the projection is the scope's own slots,
// and project hands back the rows it was given.
func TestModifiersCountTheirInput(t *testing.T) {
	g := chainGraph(300)
	all, err := ExecSelect(g, MustParse(`PREFIX ex: <http://e/> SELECT * WHERE { ?s ex:v ?v }`))
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		`PREFIX ex: <http://e/> SELECT ?s ?v WHERE { ?s ex:v ?v } LIMIT 10`,
		`PREFIX ex: <http://e/> SELECT ?v WHERE { ?s ex:v ?v } LIMIT 10`,
		`PREFIX ex: <http://e/> SELECT ?s ?v WHERE { ?s ex:v ?v } ORDER BY ?v OFFSET 5 LIMIT 10`,
	} {
		prof := NewProfile("query")
		if _, err := ExecSelectOpts(g, MustParse(src), Options{Profile: prof}); err != nil {
			t.Fatal(err)
		}
		mods := findProfNodes(prof, "modifiers")
		if len(mods) != 1 || mods[0].RowsIn != int64(all.Len()) || mods[0].RowsOut != 10 || all.Len() <= 10 {
			t.Errorf("%q: want one modifiers node with %d rows in and 10 out:\n%s", src, all.Len(), prof.Tree())
		}
	}
}

// TestInRunFiltersAreTimed: a filter applied as its join step writes gets
// its own time in the profile, taken out of its scan's — grouped or not.
func TestInRunFiltersAreTimed(t *testing.T) {
	g := starGraph(10000)
	for _, sel := range []string{"?s ?v", "(COUNT(?s) AS ?n)"} {
		prof := NewProfile("query")
		src := `PREFIX ex: <http://e/> SELECT ` + sel + ` WHERE { ?s ex:cat ?c ; ex:val ?v . FILTER(REGEX(STR(?v), "^2")) }`
		if _, err := ExecSelectOpts(g, MustParse(src), Options{Profile: prof}); err != nil {
			t.Fatal(err)
		}
		filters := findProfNodes(prof, "filter")
		if len(filters) != 1 || filters[0].RowsIn != 10000 || filters[0].RowsOut != 1111 || filters[0].Dur <= 0 {
			t.Errorf("%s: want one timed filter node with 10000 rows in and 1111 out:\n%s", sel, prof.Tree())
		}
	}
}

// TestProfileOptionalUnionNodes drives the OPTIONAL, UNION, path and MINUS
// operators and checks each has its node in the profile.
func TestProfileOptionalUnionNodes(t *testing.T) {
	g := chainGraph(300)
	for src, want := range map[string]string{
		`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:v ?n . OPTIONAL { ?s ex:tag ?g } } LIMIT 10`: "optional",
		`PREFIX ex: <http://e/> SELECT ?s WHERE { { ?s ex:tag ex:hot } UNION { ?s ex:w ?w } }`:       "union",
		`PREFIX ex: <http://e/> SELECT ?s ?w WHERE { ?s ex:link/ex:w ?w } LIMIT 5`:                   "path_scan",
		`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:v ?v . MINUS { ?s ex:tag ex:hot } }`:         "minus",
	} {
		prof := NewProfile("query")
		if _, err := ExecSelectOpts(g, MustParse(src), Options{Profile: prof}); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if nodes := findProfNodes(prof, want); len(nodes) != 1 || nodes[0].Calls == 0 {
			t.Errorf("%q: want one %s node:\n%s", src, want, prof.Tree())
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
// (a FILTER EXISTS pattern runs once per row it tests) folds into one node
// with a call count instead of growing the tree — and that an OPTIONAL body,
// which runs once over the whole batch, is one call that saw every input row.
func TestProfileAggregatesRepeatedCalls(t *testing.T) {
	g := chainGraph(100)
	prof := NewProfile("query")
	q := MustParse(`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:v ?v . FILTER EXISTS { ?s ex:link ?t . ?t ex:w ?w } }`)
	if _, err := ExecSelectOpts(g, q, Options{Profile: prof}); err != nil {
		t.Fatal(err)
	}
	filters := findProfNodes(prof, "filter")
	if len(filters) != 1 {
		t.Fatalf("want 1 filter node, got %d:\n%s", len(filters), prof.Tree())
	}
	if inner := findProfNodes(&Profile{root: filters[0]}, "bgp"); len(inner) != 1 || inner[0].Calls != 100 {
		t.Fatalf("want the EXISTS pattern as one bgp node with a call per row:\n%s", prof.Tree())
	}

	prof = NewProfile("query")
	q = MustParse(`PREFIX ex: <http://e/> SELECT ?s ?w WHERE { ?s ex:v ?v . OPTIONAL { ?s ex:link ?t . ?t ex:w ?w } }`)
	if _, err := ExecSelectOpts(g, q, Options{Profile: prof}); err != nil {
		t.Fatal(err)
	}
	opts := findProfNodes(prof, "optional")
	if len(opts) != 1 || opts[0].RowsIn != 100 {
		t.Fatalf("want 1 optional node over 100 rows:\n%s", prof.Tree())
	}
	body := findProfNodes(&Profile{root: opts[0]}, "bgp")
	if len(body) != 1 || body[0].Calls != 1 || body[0].RowsIn != opts[0].RowsIn {
		t.Fatalf("want the OPTIONAL body as one bgp call over all %d input rows:\n%s", opts[0].RowsIn, prof.Tree())
	}
}

// TestProfileFoldsSitesOfOneText: a node is found by its site, but two sites
// of one text under one parent still share the node their label names — the
// same pattern in both arms of a UNION is one scan node with two calls — and
// a site entered once per row (an EXISTS pattern) stays one node.
func TestProfileFoldsSitesOfOneText(t *testing.T) {
	prof := NewProfile("query")
	q := MustParse(`PREFIX ex: <http://e/> SELECT ?s WHERE { { ?s ex:v ?v } UNION { ?s ex:v ?v } FILTER EXISTS { ?s ex:v ?v } }`)
	if _, err := ExecSelectOpts(chainGraph(30), q, Options{Profile: prof}); err != nil {
		t.Fatal(err)
	}
	scans := findProfNodes(prof, "scan")
	if len(scans) != 2 || scans[0].Calls != 2 || scans[1].Calls != 60 || scans[0].Label != "?s <http://e/v> ?v ." || scans[1].Label != scans[0].Label {
		t.Fatalf("want one scan node for both UNION arms (2 calls) and one for the EXISTS pattern (60 calls):\n%s", prof.Tree())
	}
}

// TestProfileMarksTheFold: the scan whose rows went straight to the group
// fold is marked — the last step of a grouped query's one-run WHERE, and no
// other — and the operators around it still count the rows folded: the match,
// bgp and aggregate nodes read what the same WHERE answers ungrouped. A WHERE
// that is not one run folds its batch, and no scan is marked.
func TestProfileMarksTheFold(t *testing.T) {
	g := chainGraph(300)
	const where = `?s ex:v ?v . ?s ex:link ?t . ?t ex:w ?w . FILTER(?w < 40)`
	ungrouped, err := Select(g, `PREFIX ex: <http://e/> SELECT * WHERE { `+where+` }`)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		where string
		fold  bool
	}{
		{where, true},
		{where + ` OPTIONAL { ?s ex:tag ?g }`, false},
	} {
		prof := NewProfile("query")
		q := MustParse(`PREFIX ex: <http://e/> SELECT ?t (COUNT(?s) AS ?n) WHERE { ` + c.where + ` } GROUP BY ?t`)
		if _, err := ExecSelectOpts(g, q, Options{Profile: prof}); err != nil {
			t.Fatal(err)
		}
		scans := findProfNodes(prof, "scan")
		for i, sc := range scans {
			if want := c.fold && i == len(scans)-1; sc.Fold != want {
				t.Errorf("%s: scan %s marked fold=%v, want %v:\n%s", c.where, sc.Label, sc.Fold, want, prof.Tree())
			}
		}
		counts := []int64{findProfNodes(prof, "match")[0].RowsOut, findProfNodes(prof, "aggregate")[0].RowsIn}
		if c.fold {
			counts = append(counts, findProfNodes(prof, "bgp")[0].RowsOut)
		}
		for _, n := range counts {
			if n != int64(ungrouped.Len()) {
				t.Errorf("%s: an operator around the fold counts %d rows, the WHERE answers %d:\n%s", c.where, n, ungrouped.Len(), prof.Tree())
			}
		}
		if body, err := json.Marshal(prof); err != nil || c.fold != strings.Contains(string(body), `"fold":true`) {
			t.Errorf("%s: the exported profile does not say where the fold happened", c.where)
		}
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

// profileBenchQuery is the query BenchmarkProfileOverhead runs on
// chainGraph(300), and TestQueryAllocBudgets holds to its profiling budget.
const profileBenchQuery = `PREFIX ex: <http://e/> SELECT ?s ?w WHERE { ?s ex:v ?v . ?s ex:link ?t . ?t ex:w ?w . FILTER(?w < 40) } ORDER BY ?s LIMIT 20`

// BenchmarkProfileOverhead measures the evaluator with profiling off (the
// nil-safe no-op path — one pointer test per site) against profiling on.
func BenchmarkProfileOverhead(b *testing.B) {
	g := chainGraph(300)
	q := MustParse(profileBenchQuery)
	b.ReportAllocs()
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

// TestWarmProfileEmitsWithoutAllocating: publishing a profile whose
// operators already have their series allocates nothing — the registry
// finds a series by a label key it renders on the stack.
func TestWarmProfileEmitsWithoutAllocating(t *testing.T) {
	g := chainGraph(300)
	prof := NewProfile("query")
	q := MustParse(`PREFIX ex: <http://e/>
SELECT ?s (COUNT(?w) AS ?n) WHERE { ?s ex:v ?v . ?s ex:link ?t . ?t ex:w ?w . FILTER(?w < 40) } GROUP BY ?s ORDER BY ?s LIMIT 20`)
	if _, err := ExecSelectOpts(g, q, Options{Profile: prof}); err != nil { // emits once: the series exist
		t.Fatal(err)
	}
	if len(findProfNodes(prof, "scan")) == 0 || len(findProfNodes(prof, "filter")) == 0 {
		t.Fatalf("profile without scans or a filter:\n%s", prof.Tree())
	}
	if allocs := testing.AllocsPerRun(100, prof.emitMetrics); allocs != 0 {
		t.Errorf("emitting a warm profile allocates %v times, want 0", allocs)
	}
}
