package sparql

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
)

// evalOptionalPerRow is the OPTIONAL evaluation evalOptional replaced: the
// group runs once per input row, on that row alone, and the row is kept as it
// is when the group has no solution for it. It is the reference the batched
// left outer join is held to, row sequence for row sequence. The group runs
// as a body, under the rules that keep a body's decisions from reading its
// batch (evaluator.inBody); for a body of one run they are the decisions a
// single row always got.
func (ev *evaluator) evalOptionalPerRow(opt *GroupPattern, input *batch) *batch {
	inBody := ev.inBody
	ev.inBody = true
	defer func() { ev.inBody = inBody }()
	w := rowWriter{width: input.width}
	one := batch{width: input.width}
	for i, n := 0, input.n(); i < n; i++ {
		if ev.cancel.aborted() {
			break
		}
		one.vals = input.row(i)
		if ext := ev.evalGroup(opt, &one, nil); ext.n() > 0 {
			w.addAll(ext)
		} else {
			w.add(one.vals)
		}
	}
	return w.batch()
}

// selectPerRow runs a SELECT with every OPTIONAL, nested ones included,
// evaluated by the per-row reference.
func selectPerRow(g *rdf.Graph, q *Query, opts Options) (*Results, error) {
	ev := newEvaluator(context.Background(), g, opts)
	ev.optional = (*evaluator).evalOptionalPerRow
	return ev.execSelect(q)
}

// optionalGraph is a random graph with enough fan-out per subject that an
// OPTIONAL body's steps see several rows per input row, with duplicate
// predicates per subject and subjects as objects, so variable predicates
// and paths have something to walk.
func optionalGraph(rng *rand.Rand, n int) *rdf.Graph {
	var sb strings.Builder
	sb.WriteString("@prefix e: <http://e/> .\n")
	for i := 0; i < n; i++ {
		o := fmt.Sprint("e:s", rng.Intn(8))
		if rng.Intn(3) == 0 {
			o = fmt.Sprint(rng.Intn(4))
		}
		fmt.Fprintf(&sb, "e:s%d e:p%d %s .\n", rng.Intn(8), rng.Intn(4), o)
	}
	return rdf.MustLoadTurtle(sb.String())
}

// optionalQuery draws a SELECT * with one or two OPTIONALs after a one- or
// two-pattern outer run. A body is one to three elements: runs of one to
// three patterns (variable predicates among them), FILTERs on an outer
// variable, a nested OPTIONAL (and a UNION reading what it may bind), UNION,
// BIND, VALUES, MINUS, a property path and a subquery, so runs also come
// after elements that leave a different number of rows per input row. The
// second OPTIONAL reads ?d, which the first binds in only some rows, so its
// input has mixed boundness.
func optionalQuery(rng *rand.Rand) string {
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	outer := pick(
		"?a e:p0 ?b .",
		"?a ?p ?b .",
		"?a e:p1 ?b . ?b e:p0 ?c .",
		"?a ?p ?b . ?b e:p2 ?c .",
	)
	run := func() string {
		pats := []string{
			"?b e:p2 ?d .", "?a ?q ?d .", "?d ?q ?e .", "?b ?p ?e .", "?d e:p1 ?e .",
			"?a e:p3 ?d .", "?e ?p ?f .", "?d e:p0 ?f .", "?b ?q ?d .",
		}
		var out []string
		for _, i := range rng.Perm(len(pats))[:1+rng.Intn(3)] {
			out = append(out, pats[i])
		}
		return strings.Join(out, " ")
	}
	elem := func() string {
		switch rng.Intn(10) {
		case 0:
			return run() + " " + pick("FILTER(?b != e:s1)", "FILTER(!isLiteral(?a) && ?d != ?a)", "FILTER(?d != ?b)", "FILTER(isIRI(?b) || ?d > 1)")
		case 1:
			return "?a ?q ?d . OPTIONAL { " + pick("?d e:p3 ?f .", "?d ?r ?f . ?f e:p1 ?g .", "?d ?q ?f . FILTER(?f != ?a)") + " }" +
				pick("", " { ?f e:p3 ?g . ?d ?r ?g . } UNION { ?d ?r ?g . }")
		case 2:
			return "{ " + pick("?a e:p1 ?d .", "?b ?q ?d .") + " } UNION { " + pick("?a e:p2 ?d . ?d ?q ?e .", "?d e:p0 ?a .") + " }"
		case 3:
			return run() + " BIND(STR(?d) AS ?s)"
		case 4:
			return "VALUES ?v { e:s0 e:s2 1 } ?v ?q ?d ."
		case 5:
			return run() + " MINUS { ?d e:p0 " + pick("1", "?a", "e:s3") + " }"
		case 6:
			return pick("?a e:p0+ ?d .", "?b e:p1/e:p2 ?d .", "?b (e:p0|e:p3)* ?d .") + pick("", " ?d e:p1 ?e . ?d ?q ?f .")
		case 7:
			return "{ SELECT ?d (COUNT(*) AS ?n) WHERE { ?d e:p1 ?z } GROUP BY ?d } ?b ?q ?d ."
		default:
			return run()
		}
	}
	var body []string
	for k := 1 + rng.Intn(3); k > 0; k-- {
		body = append(body, elem())
	}
	q := "PREFIX e: <http://e/> SELECT * WHERE { " + outer + " OPTIONAL { " + strings.Join(body, " ") + " }"
	if rng.Intn(2) == 0 {
		q += " OPTIONAL { " + pick("?d ?q ?h .", "?d e:p1 ?h . ?h ?q ?i .", "?b ?q ?h . ?h e:p0 ?d .", "?d e:p0 ?h . FILTER(?h != ?b)") + " }"
	}
	return q + " }"
}

// TestOptionalMatchesPerRow: the batched left outer join returns the rows the
// per-row evaluation returned, in the same sequence — on 300 seeded random
// queries whose bodies hold every kind of group element.
// A query whose per-row evaluation outgrows the row budget is drawn again.
func TestOptionalMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	var compared, rows, extended, hashed, split int
	for trial := 0; compared < 300; trial++ {
		if trial == 400 {
			t.Fatalf("only %d of %d queries ran within the row budget", compared, trial)
		}
		g := optionalGraph(rng, 20+rng.Intn(60))
		src := optionalQuery(rng)
		q := MustParse(src)
		if _, err := selectPerRow(g, q, Options{Limits: Limits{MaxIntermediateRows: 50000}}); errors.Is(err, ErrBudgetExceeded) {
			continue
		}
		compared++
		// A batched body step holds what the per-row steps held together.
		limits := Limits{MaxIntermediateRows: 500000}
		want, err := selectPerRow(g, q, Options{Limits: limits})
		if err != nil {
			t.Fatalf("trial %d %s: per-row: %v", trial, src, err)
		}
		prof := NewProfile("test")
		got, err := ExecSelectOpts(g, q, Options{Limits: limits, Profile: prof})
		if err != nil {
			t.Fatalf("trial %d %s: batched: %v", trial, src, err)
		}
		assertSameResults(t, fmt.Sprintf("trial %d: %s", trial, src), want, got)
		rows += got.Len()
		for _, b := range bindings(got) {
			if _, ok := b["d"]; ok {
				extended++
			}
		}
		for _, opt := range findProfNodes(prof, "optional") {
			for _, c := range opt.children {
				if c.Calls > opt.Calls {
					split++ // a body ran once per boundness class
				}
			}
			for _, scan := range findProfNodes(&Profile{root: opt}, "scan") {
				if scan.Strategy == strategyHashJoin.String() {
					hashed++
				}
			}
		}
	}
	// The queries must exercise the join: rows with and without a body
	// solution, hash joins inside bodies, and inputs of mixed boundness.
	if extended == 0 || extended == rows || hashed == 0 || split == 0 {
		t.Fatalf("%d of %d rows extended, %d hash-joined body scans, %d split bodies: the queries miss a side of the join",
			extended, rows, hashed, split)
	}
	t.Logf("%d queries: %d of %d rows extended, %d hash-joined body scans, %d split bodies", compared, extended, rows, hashed, split)
}

// TestOptionalAllocsFlatInRows: what an OPTIONAL costs in allocations does
// not grow with its input. At FILTER(?p > 1000) the benchmark's
// optional/company-1 query joins about ten times the rows it joins at
// FILTER(?p > 1900); a body evaluated once per input row allocated its plan,
// its maps and its batches that many times more.
func TestOptionalAllocsFlatInRows(t *testing.T) {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 2240, Companies: 16, Seed: 1})
	rdf.Materialize(g)
	allocs := func(threshold int) (float64, int) {
		q := MustParse(fmt.Sprintf(optionalCompanyQuery, threshold))
		var res *Results
		n := testing.AllocsPerRun(10, func() {
			var err error
			if res, err = ExecSelect(g, q); err != nil {
				t.Fatal(err)
			}
		})
		return n, res.Len()
	}
	few, fewRows := allocs(1900)
	many, manyRows := allocs(1000)
	if manyRows < 8*fewRows {
		t.Fatalf("%d rows against %d: the thresholds no longer span the rows", manyRows, fewRows)
	}
	t.Logf("%v allocations for %d rows, %v for %d", few, fewRows, many, manyRows)
	if many > few+8 {
		t.Errorf("%v allocations for %d rows, %v for %d: the OPTIONAL allocates per input row", few, fewRows, many, manyRows)
	}
}

// TestOptionalSlotInEveryScope: every scope an OPTIONAL can run in has the
// optional slot — a subquery's, an EXISTS pattern's, an ORDER BY
// condition's, the bare patterns of ASK and CONSTRUCT, OrderComparator's —
// and the slot never shows: not in SELECT *, not in COUNT(DISTINCT *).
func TestOptionalSlotInEveryScope(t *testing.T) {
	g := chainGraph(30) // s0..s29, every third one tagged
	const pre = `PREFIX ex: <http://e/> `
	for _, c := range []struct {
		query string
		rows  int
		first string // the first row's first value, when it says something
	}{
		{`SELECT * WHERE { ?s ex:v ?v OPTIONAL { ?s ex:tag ?g } }`, 30, ""},
		{`SELECT ?s ?g WHERE { ?s ex:v ?v { SELECT ?s ?g WHERE { ?s ex:link ?t OPTIONAL { ?s ex:tag ?g } } } }`, 30, ""},
		{`SELECT ?s WHERE { ?s ex:v ?v FILTER EXISTS { ?s ex:link ?t OPTIONAL { ?s ex:tag ?g } FILTER(BOUND(?g)) } }`, 10, ""},
		{`SELECT (COUNT(DISTINCT *) AS ?n) WHERE { ?s ex:v ?v OPTIONAL { ?s ex:tag ?g } }`, 1, "30"},
		{`SELECT ?s WHERE { ?s ex:v ?v } ORDER BY DESC(EXISTS { ?s ex:link ?t OPTIONAL { ?s ex:tag ?g } FILTER(BOUND(?g)) }) ?s`, 30, "http://e/s0"},
		// A query's own variable of the hidden prefix is just a variable.
		{`SELECT ?_anon_opt ?s WHERE { ?s ex:v ?v OPTIONAL { BIND(5 AS ?_anon_opt) } }`, 30, "5"},
	} {
		res, err := ExecSelect(g, MustParse(pre+c.query))
		if err != nil || res.Len() != c.rows {
			t.Fatalf("%s: %v, want %d rows", c.query, err, c.rows)
		}
		if c.first != "" && res.Rows[0][0].Value != c.first {
			t.Errorf("%s: first row %v, want %s", c.query, res.Rows[0], c.first)
		}
		if slices.Contains(res.Vars, optionalVar) {
			t.Errorf("%s: the optional slot is projected: %v", c.query, res.Vars)
		}
	}
	if ok, err := Ask(g, pre+`ASK { ?s ex:v ?v OPTIONAL { ?s ex:tag ?g } FILTER(!BOUND(?g)) }`); err != nil || !ok {
		t.Errorf("ASK: %v, %v", ok, err)
	}
	if out, err := Construct(g, pre+`CONSTRUCT { ?s ex:g ?g } WHERE { ?s ex:v ?v OPTIONAL { ?s ex:tag ?g } }`); err != nil || out.Len() != 10 {
		t.Errorf("CONSTRUCT: %v, want 10 triples", err)
	}
	conds := MustParse(pre + `SELECT ?s WHERE { ?s ex:v ?v } ORDER BY (EXISTS { ?s ex:link ?t OPTIONAL { ?s ex:tag ?g } })`).OrderBy
	if a := (Binding{"s": rdf.NewIRI("http://e/s0")}); OrderComparator(g, conds)(a, a) != 0 {
		t.Error("OrderComparator: a binding does not compare equal to itself")
	}
}
