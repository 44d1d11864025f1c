package sparql

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"rdfanalytics/internal/datagen"
	"rdfanalytics/internal/rdf"
)

// The group fold's oracle: GROUP BY as it was evaluated before the fold —
// the WHERE materialized as one batch, partitioned by key (aggregate), every
// aggregate then computed over its group's rows, once per occurrence
// (computeAggregate, aggValues). The three functions are kept verbatim but for
// one line: an expression over a group reaches computeAggregate through
// refEnv, as evalExpr did when exprEnv carried the group.

// groupRows is one group of a grouped query: the rows (by index into the
// ungrouped batch, in input order) sharing one GROUP BY key.
type groupRows struct {
	rows    *batch
	members []int32
}

// aggregate implements GROUP BY + aggregate evaluation: rows are partitioned
// by the ID tuple of the group conditions, every aggregate in the
// projection/HAVING/ORDER BY is computed per group, and HAVING prunes
// groups. It returns one *extended* solution per surviving group — the
// group's first row overlaid with the group-condition values, the
// SELECT-expression values and hidden precomputed values for any
// aggregate-bearing ORDER BY condition — plus the ORDER BY conditions
// rewritten to reference those hidden variables. Projection happens later
// (selectRows), after ORDER BY has seen the extended rows. Groups come out
// sorted by their N-Triples-rendered key: LIMIT without ORDER BY, the HIFUN
// path and stable-sort ties all observe that order.
func (ev *evaluator) aggregate(q *Query, rows *batch) (*batch, []OrderCond, error) {
	env := exprEnv{ev: ev}
	work := &batch{width: rows.width}
	nconds := len(q.GroupBy)
	// Per condition: the slot a plain variable is read from, and the slot
	// the key value is written to in the group's row (-1: none).
	from, to := make([]int, nconds), make([]int, nconds)
	for c, gc := range q.GroupBy {
		from[c], to[c] = ev.sc.slot(gc.Var), ev.sc.slot(groupCondName(c, gc))
	}
	// Partition: number the distinct key tuples. A huge GROUP BY is governed
	// the same way joins are: the partitioning loop polls for cancellation.
	groups := newTupleIndex(nconds, 0)
	key := make([]rdf.ID, nconds)
	gid := make([]int32, 0, rows.n())    // group of each kept row
	member := make([]int32, 0, rows.n()) // its row index
next:
	for i, n := 0, rows.n(); i < n; i++ {
		if i%pollEvery == 0 && ev.cancel.poll() {
			return work, nil, ev.cancel.cause()
		}
		row := rows.row(i)
		for c, gc := range q.GroupBy {
			switch {
			case gc.Expr != nil:
				v, err := env.evalExpr(gc.Expr, row)
				if err != nil {
					continue next // no key, no group
				}
				key[c] = ev.dict.id(v)
			case from[c] >= 0:
				key[c] = row[from[c]] // 0: grouped under the unbound key
			}
		}
		g, _ := groups.add(key)
		gid = append(gid, int32(g))
		member = append(member, int32(i))
	}
	// A grouped query with no GROUP BY and no rows still yields one group
	// (e.g. SELECT (COUNT(*) AS ?n) over an empty match).
	if nconds == 0 && groups.count == 0 {
		groups.add(nil)
	}
	// Bucket the kept rows by group, input order within a group.
	start, byGroup := bucketize(gid, groups.count)
	for i, k := range byGroup {
		byGroup[i] = member[k]
	}
	// Output order: groups sorted by the rendered key, built once per group.
	order := make([]int, groups.count)
	names := make([]string, groups.count)
	var sb strings.Builder
	for g := range order {
		order[g] = g
		sb.Reset()
		for _, id := range groups.tuple(g) {
			if id != 0 {
				sb.WriteString(ev.dict.term(id).String())
			}
			sb.WriteByte(0)
		}
		names[g] = sb.String()
	}
	sort.SliceStable(order, func(a, b int) bool { return names[order[a]] < names[order[b]] })
	// What each group computes: the SELECT expressions and, because ORDER BY
	// conditions that contain aggregates need the group's rows, which are
	// gone once grouping finishes, each such condition — into a hidden
	// variable the rewritten condition references.
	type cell struct {
		expr Expr
		slot int
	}
	var cells []cell
	for _, it := range q.Select.Items {
		if it.Expr != nil { // a bare variable is already in the representative
			cells = append(cells, cell{it.Expr, ev.sc.slot(it.Var)})
		}
	}
	conds := slices.Clone(q.OrderBy)
	for i, c := range conds {
		if HasAggregate(c.Expr) {
			conds[i].Expr = ExprVar{Name: hiddenOrderVar(i)}
			cells = append(cells, cell{c.Expr, ev.sc.slot(hiddenOrderVar(i))})
		}
	}
	// Extend each surviving group's representative row.
	work.vals = make([]rdf.ID, 0, groups.count*rows.width)
	rep := make([]rdf.ID, rows.width)
	// Aggregates evaluate over the group's rows, everything around them over
	// the representative row.
	grp := groupRows{rows: rows}
	genv := refEnv{ev: ev, grp: &grp}
	for i, g := range order {
		if i%256 == 0 && ev.cancel.poll() {
			return work, nil, ev.cancel.cause()
		}
		grp.members = byGroup[start[g]:start[g+1]]
		// The representative carries the group's first row — variables
		// constant within the group keep their value — under the key values.
		clear(rep)
		if len(grp.members) > 0 {
			copy(rep, rows.row(int(grp.members[0])))
		}
		for c, id := range groups.tuple(g) {
			if to[c] >= 0 && id != 0 {
				rep[to[c]] = id
			}
		}
		keep := true
		for _, h := range q.Having {
			if ok, err := genv.evalBool(h, rep); err != nil || !ok {
				keep = false
				break
			}
		}
		if !keep {
			continue
		}
		base := len(work.vals)
		work.vals = append(work.vals, rep...)
		out := work.vals[base:]
		for _, c := range cells {
			// An erroring aggregate (e.g. MIN over an empty group, §18.5)
			// leaves the cell unbound — it must not shadow a same-named
			// representative variable.
			out[c.slot] = 0
			if v, err := genv.evalExpr(c.expr, rep); err == nil {
				out[c.slot] = ev.dict.id(v)
			}
		}
	}
	return work, conds, nil
}

// refEnv evaluates an expression over a group the way exprEnv once did:
// every aggregate in it is computed over the group's rows, the rest against
// the row.
type refEnv struct {
	ev  *evaluator
	grp *groupRows
}

func (env refEnv) evalExpr(e Expr, row []rdf.ID) (rdf.Term, error) {
	e = mapAggregates(e, func(a ExprAggregate) Expr {
		if t, err := env.ev.computeAggregate(a, *env.grp); err == nil {
			return ExprTerm{Term: t}
		}
		return ExprVar{Name: "_anon erroring aggregate"} // no slot: an evaluation error
	})
	return exprEnv{ev: env.ev}.evalExpr(e, row)
}

func (env refEnv) evalBool(e Expr, row []rdf.ID) (bool, error) {
	t, err := env.evalExpr(e, row)
	if err != nil {
		return false, err
	}
	return ebv(t)
}

// mapAggregates returns a copy of e with fn applied to every aggregate.
func mapAggregates(e Expr, fn func(ExprAggregate) Expr) Expr {
	all := func(es []Expr) []Expr {
		out := make([]Expr, len(es))
		for i, x := range es {
			out[i] = mapAggregates(x, fn)
		}
		return out
	}
	switch x := e.(type) {
	case ExprAggregate:
		return fn(x)
	case ExprUnary:
		return ExprUnary{Op: x.Op, Sub: mapAggregates(x.Sub, fn)}
	case ExprBinary:
		return ExprBinary{Op: x.Op, Left: mapAggregates(x.Left, fn), Right: mapAggregates(x.Right, fn)}
	case ExprCall:
		return ExprCall{Func: x.Func, Args: all(x.Args)}
	case ExprIn:
		return ExprIn{Not: x.Not, Left: mapAggregates(x.Left, fn), List: all(x.List)}
	}
	return e
}

// refSelectJSON runs a grouped SELECT the way selectRows did before the fold
// — the WHERE as one batch, aggregate, then the modifiers — and serializes
// the answer as execSelect decodes it.
func refSelectJSON(g *rdf.Graph, q *Query) ([]byte, error) {
	ev := newEvaluator(context.Background(), g, Options{})
	ev.sc = selectScope(q)
	rows := ev.evalGroup(q.Where, unitBatch(ev.sc.width()), nil)
	if err := ev.cancel.cause(); err != nil {
		return nil, err
	}
	work, order, err := ev.aggregate(q, rows)
	if err != nil {
		return nil, err
	}
	if len(order) > 0 {
		work = ev.orderBy(work, order)
	}
	vars, out := ev.project(q, work)
	if q.Select.Distinct {
		out = distinct(out)
	}
	lo, hi := min(q.Offset, out.n()), out.n()
	if q.Limit >= 0 && q.Limit < hi-lo {
		hi = lo + q.Limit
	}
	res := &Results{Vars: vars, Rows: make([][]rdf.Term, hi-lo)}
	for i := range res.Rows {
		if len(vars) == 0 {
			continue
		}
		res.Rows[i] = make([]rdf.Term, len(vars))
		for j, id := range out.row(lo + i) {
			if id != 0 {
				res.Rows[i][j] = ev.dict.term(id)
			}
		}
	}
	return res.JSON(), nil
}

func isGrouped(q *Query) bool {
	return len(q.GroupBy) > 0 || len(q.Having) > 0 ||
		slices.ContainsFunc(q.Select.Items, func(it SelectItem) bool { return HasAggregate(it.Expr) })
}

// foldedInRun reports whether a profiled run fed the group fold from its last
// step.
func foldedInRun(prof *Profile) bool {
	return slices.ContainsFunc(findProfNodes(prof, "scan"), func(n *ProfNode) bool { return n.Fold })
}

// TestFoldMatchesReference: the group fold's answers are byte for byte the
// reference pipeline's for every grouped query of the conformance corpus and
// of the parallel corpus, and for seeded random grouped queries over a
// datagen products graph — fed from the join's last step or from a batch.
func TestFoldMatchesReference(t *testing.T) {
	folded, batched := 0, 0
	check := func(label string, g *rdf.Graph, src string) {
		t.Helper()
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v\n%s", label, err, src)
		}
		if q.Form != FormSelect || !isGrouped(q) {
			return
		}
		prof := NewProfile("query")
		res, err := ExecSelectOpts(g, q, Options{Profile: prof})
		want, refErr := refSelectJSON(g, q)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%s: fold error %v, reference error %v\n%s", label, err, refErr, src)
		}
		if err != nil {
			return
		}
		if got := res.JSON(); string(got) != string(want) {
			t.Fatalf("%s: the fold answers\n%s\nthe reference\n%s\nquery: %s\n%s", label, got, want, src, prof.Tree())
		}
		if foldedInRun(prof) {
			folded++
		} else {
			batched++
		}
	}
	corpus, err := filepath.Glob("../conformance/testdata/*/*/query.rq")
	if err != nil || len(corpus) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	for _, path := range corpus {
		dir := filepath.Dir(path)
		data, err := os.ReadFile(filepath.Join(dir, "data.ttl"))
		if err != nil {
			continue // a case over another dataset
		}
		g, err := rdf.LoadTurtleString(string(data))
		if err != nil {
			t.Fatal(err)
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		check(dir, g, string(src))
	}
	for name, g := range map[string]*rdf.Graph{"invoices": invoices(t), "chain": chainGraph(600)} {
		for _, src := range parallelCorpus {
			check(name, g, src)
		}
	}
	g := foldGraph()
	gen := &groupGen{rng: rand.New(rand.NewSource(29))}
	for i := 0; i < 320; i++ {
		check(fmt.Sprint("random ", i), g, gen.next())
	}
	if folded < 100 || batched < 100 {
		t.Errorf("%d grouped queries folded from the join, %d from a batch: want both paths covered", folded, batched)
	}
}

// foldGraph is a products graph whose laptops also carry an ex:score: an
// xsd:double for all but two (a sum over doubles depends on the order it adds
// them in; half of them spell their value differently, so MIN and MAX meet
// ties between distinct terms), a string for those (SUM and AVG over it are
// errors).
func foldGraph() *rdf.Graph {
	g := datagen.Products(datagen.ProductsConfig{Laptops: 240, Companies: 8, Seed: 7})
	var ts []rdf.Triple
	for i := 1; i <= 240; i++ {
		v := 0.1*float64(i%37) + 0.7
		score := rdf.NewTyped(strconv.FormatFloat(v, 'g', -1, 64), rdf.XSDDouble)
		if i%2 == 0 { // the same value, spelled so that MIN and MAX see ties
			score = rdf.NewTyped(strconv.FormatFloat(v, 'e', -1, 64), rdf.XSDDouble)
		}
		if i%97 == 0 {
			score = rdf.NewString("n/a")
		}
		ts = append(ts, rdf.NewTriple(rdf.NewIRI(fmt.Sprintf("http://example.org/products#laptop%d", i)), rdf.NewIRI("http://example.org/products#score"), score))
	}
	g.AddAll(ts)
	return g
}

// groupGen writes random grouped queries over foldGraph: a star or chain BGP,
// sometimes with a filter placed inside the run (one that keeps nothing
// among them), an OPTIONAL before it, or an OPTIONAL, BIND, deferred filter
// or unknown predicate after it, which keep the run from feeding the fold;
// zero to two keys among its variables, an expression, an EXISTS and a
// variable no row binds; one to
// three aggregates of every function, with and without DISTINCT, over
// variables and expressions, COUNT(*) and COUNT(DISTINCT *); and HAVING, an
// aggregate ORDER BY, DISTINCT and LIMIT/OFFSET at random.
type groupGen struct{ rng *rand.Rand }

func (gg *groupGen) pick(xs ...string) string { return xs[gg.rng.Intn(len(xs))] }

func (gg *groupGen) next() string {
	// Per BGP: its variables, those a group key is usually drawn from (few
	// values, many rows each) and the numeric ones an aggregate usually folds.
	bgps := []struct{ where, vars, keys, nums string }{
		{"?l a ex:Laptop . ?l ex:price ?p .", "l p", "p", "p"},
		{"?l ex:manufacturer ?m . ?l ex:price ?p . ?l ex:USBPorts ?u .", "l m p u", "m u", "p u"},
		{"?l ex:manufacturer ?m . ?m ex:origin ?o . ?l ex:releaseDate ?d .", "l m o d", "m o", "d"},
		{"?l ex:hardDrive ?h . ?h ex:manufacturer ?hm . ?l ex:score ?x .", "l h hm x", "hm", "x"},
		{"?l ex:score ?x . ?l ex:USBPorts ?u . ?l ex:price ?p .", "l x u p", "u", "x p u"},
		{"?c ex:origin ?o . ?c ex:size ?p .", "c o p", "o", "p"},
	}
	b := bgps[gg.rng.Intn(len(bgps))]
	vars := strings.Fields(b.vars)
	from := func(names string) string {
		if gg.rng.Intn(3) == 0 {
			names = strings.Join(vars, " ")
		}
		f := strings.Fields(names)
		return "?" + f[gg.rng.Intn(len(f))]
	}
	v := func() string { return from(strings.Join(vars, " ")) }
	where := b.where
	switch gg.rng.Intn(8) {
	case 0:
		where += " FILTER(" + v() + " != " + v() + " || isLiteral(" + v() + "))"
	case 1:
		where += " FILTER(STRLEN(STR(" + v() + ")) > 200)" // keeps no row
	case 2:
		where += " OPTIONAL { " + v() + " ex:score ?z }"
		vars = append(vars, "z")
	case 3:
		where += " BIND(STRLEN(STR(" + v() + ")) AS ?z)"
		vars = append(vars, "z")
	case 4:
		where += " FILTER(BOUND(" + v() + "))"
	case 5:
		where += " " + v() + " ex:noSuchPredicate ?q ."
	case 6: // the run is the last element, not the only one
		where = "OPTIONAL { " + v() + " ex:score ?z } " + where
		vars = append(vars, "z")
	}
	var keys, sel []string
	for k := gg.rng.Intn(3); k > 0; k-- {
		switch gg.rng.Intn(6) {
		case 5: // a pattern evaluated while the fold is fed
			keys = append(keys, "(EXISTS { "+v()+" ex:USBPorts 3 } AS ?k"+fmt.Sprint(k)+")")
			sel = append(sel, "?k"+fmt.Sprint(k))
		case 0:
			keys = append(keys, "(STR("+v()+") AS ?k"+fmt.Sprint(k)+")")
			sel = append(sel, "?k"+fmt.Sprint(k))
		case 1:
			keys = append(keys, "STRLEN(STR("+v()+"))")
		case 2:
			keys, sel = append(keys, "?unbound"), append(sel, "?unbound")
		default:
			k := from(b.keys)
			keys, sel = append(keys, k), append(sel, k)
		}
	}
	agg := func() string {
		switch gg.rng.Intn(9) {
		case 0:
			return gg.pick("COUNT(*)", "COUNT(DISTINCT *)")
		case 1:
			return gg.pick("SUM", "AVG", "MIN", "MAX") + "(" + gg.pick("", "DISTINCT ") + "(" + from(b.nums) + " * 1.5))"
		}
		f := gg.pick("COUNT", "SUM", "AVG", "MIN", "MAX", "SAMPLE", "GROUP_CONCAT")
		arg := gg.pick("", "DISTINCT ") + from(b.nums)
		if f == "GROUP_CONCAT" && gg.rng.Intn(2) == 0 {
			arg += `; SEPARATOR=", "`
		}
		return f + "(" + arg + ")"
	}
	for i := gg.rng.Intn(3); i >= 0; i-- {
		sel = append(sel, "("+agg()+" AS ?a"+fmt.Sprint(i)+")")
	}
	if gg.rng.Intn(6) == 0 {
		sel = append(sel, v()) // the representative's value
	}
	q := "PREFIX ex: <http://example.org/products#> SELECT " + gg.pick("", "DISTINCT ") + strings.Join(sel, " ") + " WHERE { " + where + " }"
	if len(keys) > 0 {
		q += " GROUP BY " + strings.Join(keys, " ")
	}
	if gg.rng.Intn(3) == 0 {
		q += " HAVING (" + gg.pick("COUNT(*) > 2", "SUM("+v()+") > 10", "MIN("+v()+") < MAX("+v()+")") + ")"
	}
	switch gg.rng.Intn(4) {
	case 0:
		q += " ORDER BY DESC(" + agg() + ")"
	case 1:
		q += " ORDER BY (" + agg() + ") " + gg.pick("LIMIT 3", "OFFSET 1")
	}
	return q
}

// aggValues folds over the aggregate's argument column: fn sees, in row
// order, the value of every row of the group that has one (unbound and
// erroring rows are skipped, §18.5), once per distinct value under DISTINCT.
// A plain-variable argument is read as an ID and decoded only when
// wantTerms; equal terms have equal IDs, so DISTINCT is an ID set.
func (ev *evaluator) aggValues(agg ExprAggregate, grp groupRows, wantTerms bool, fn func(rdf.Term)) {
	env := exprEnv{ev: ev}
	slot, isVar := -1, false
	if v, ok := agg.Arg.(ExprVar); ok {
		slot, isVar = ev.sc.slot(v.Name), true
	}
	var seen *tupleIndex
	if agg.Distinct {
		seen = newTupleIndex(1, 0)
	}
	var key [1]rdf.ID
	for _, r := range grp.members {
		row := grp.rows.row(int(r))
		var t rdf.Term
		if isVar {
			if slot < 0 || row[slot] == 0 {
				continue
			}
			key[0] = row[slot]
		} else {
			v, err := env.evalExpr(agg.Arg, row)
			if err != nil {
				continue
			}
			if t = v; seen != nil {
				key[0] = ev.dict.id(v)
			}
		}
		if seen != nil {
			if _, fresh := seen.add(key[:]); !fresh {
				continue
			}
		}
		if isVar && wantTerms {
			t = ev.dict.term(key[0])
		}
		fn(t)
	}
}

// computeAggregate evaluates one aggregate over the group's rows.
func (ev *evaluator) computeAggregate(agg ExprAggregate, grp groupRows) (rdf.Term, error) {
	if agg.Star {
		if agg.Func != "COUNT" {
			return rdf.Term{}, evalErrf("%s(*) is not defined", agg.Func)
		}
		n := len(grp.members)
		if agg.Distinct {
			// The number of distinct solutions (§18.5.1.2): distinct ID rows.
			seen := newTupleIndex(grp.rows.width, n)
			for _, r := range grp.members {
				seen.add(grp.rows.row(int(r)))
			}
			n = seen.count
		}
		return rdf.NewInteger(int64(n)), nil
	}
	switch agg.Func {
	case "COUNT":
		n := 0
		ev.aggValues(agg, grp, false, func(rdf.Term) { n++ })
		return rdf.NewInteger(int64(n)), nil
	case "SUM":
		// All-integer groups accumulate in int64: going through float64 and
		// casting back silently loses precision past 2^53. The accumulator
		// switches to float64 only when a non-integer value appears (numeric
		// promotion to xsd:decimal, §18.5.1.3).
		var isum int64
		fsum := 0.0
		allInt := true
		var bad rdf.Term // first non-numeric value
		ev.aggValues(agg, grp, true, func(v rdf.Term) {
			f, ok := v.Float()
			if !ok {
				if bad.IsZero() {
					bad = v
				}
				return
			}
			if allInt && v.Datatype == rdf.XSDInteger {
				if i, okI := v.Int(); okI {
					isum += i
					return
				}
			}
			if allInt {
				allInt = false
				fsum = float64(isum)
			}
			fsum += f
		})
		if !bad.IsZero() {
			return rdf.Term{}, evalErrf("SUM over non-numeric %s", bad)
		}
		if allInt {
			return rdf.NewInteger(isum), nil
		}
		return rdf.NewDecimal(fsum), nil
	case "AVG":
		sum, n := 0.0, 0
		var bad rdf.Term // first non-numeric value
		ev.aggValues(agg, grp, true, func(v rdf.Term) {
			f, ok := v.Float()
			if !ok && bad.IsZero() {
				bad = v
			}
			sum += f
			n++
		})
		if !bad.IsZero() {
			return rdf.Term{}, evalErrf("AVG over non-numeric %s", bad)
		}
		if n == 0 {
			return rdf.NewInteger(0), nil
		}
		return rdf.NewDecimal(sum / float64(n)), nil
	case "MIN", "MAX":
		var best rdf.Term
		n := 0
		ev.aggValues(agg, grp, true, func(v rdf.Term) {
			if n++; n == 1 {
				best = v
				return
			}
			c, err := compareTerms(v, best)
			if err != nil {
				// fall back to term order for mixed types
				if v.Less(best) {
					c = -1
				} else {
					c = 1
				}
			}
			if (agg.Func == "MIN" && c < 0) || (agg.Func == "MAX" && c > 0) {
				best = v
			}
		})
		if n == 0 {
			// Per §18.5 the aggregate errors on an empty group; callers map
			// the wrapped errEval to an unbound cell (aggregate), never to a
			// query-level failure.
			return rdf.Term{}, evalErrf("%s of empty group", agg.Func)
		}
		return best, nil
	case "SAMPLE":
		var first rdf.Term
		n := 0
		ev.aggValues(agg, grp, true, func(v rdf.Term) {
			if n++; n == 1 {
				first = v
			}
		})
		if n == 0 {
			return rdf.Term{}, evalErrf("SAMPLE of empty group")
		}
		return first, nil
	case "GROUP_CONCAT":
		sep := agg.Separator
		if sep == "" {
			sep = " "
		}
		var sb strings.Builder
		n := 0
		ev.aggValues(agg, grp, true, func(v rdf.Term) {
			if n++; n > 1 {
				sb.WriteString(sep)
			}
			sb.WriteString(v.Value)
		})
		return rdf.NewString(sb.String()), nil
	default:
		return rdf.Term{}, evalErrf("unknown aggregate %s", agg.Func)
	}
}
