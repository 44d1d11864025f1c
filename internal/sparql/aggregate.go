package sparql

import (
	"bytes"
	"cmp"
	"reflect"
	"slices"
	"strings"

	"rdfanalytics/internal/rdf"
)

// groupFold is GROUP BY and aggregation as one pass over the solutions in
// their order: a row is keyed by the ID tuple of the group conditions, and a
// group keeps its first row (the representative) and one accumulator per
// distinct aggregate of SELECT, HAVING and ORDER BY, never its rows. Rows come
// from the WHERE's last join step as it writes them (evalGroup, runTriples) or
// from the WHERE's batch (selectRows), in batch order either way: double sums,
// MIN/MAX ties and GROUP_CONCAT come out as a pass over the batch makes them.
type groupFold struct {
	ev       *evaluator
	q        *Query
	from, to []int // per condition: the slot a variable is read from, its key's slot (-1: none)
	aggs     []aggSpec
	groups   *tupleIndex // key tuple -> group number, in order of first appearance
	key      []rdf.ID
	reps     []rdf.ID // group g's representative is reps[g*width:(g+1)*width]
	accs     []aggAcc // and its accumulators accs[g*len(aggs):(g+1)*len(aggs)]
	// The SELECT expressions and aggregate ORDER BY conditions (into hidden
	// variables conds references), aggregates rewritten to aggRefs.
	cells  []foldCell
	having []Expr
	conds  []OrderCond
	rows   int // rows handed to add
}

type foldCell struct {
	expr Expr
	slot int
}

// aggSpec is one distinct aggregate of a grouped query.
type aggSpec struct {
	ExprAggregate
	isVar bool // the argument is a plain variable, read from slot (-1: none)
	slot  int
	sep   string // GROUP_CONCAT's separator
}

// aggAcc is one group's accumulator for one aggregate.
type aggAcc struct {
	n      int         // values folded
	isum   int64       // SUM while every value is an integer
	fsum   float64     // the sum once a value is not
	float  bool        // fsum is the sum
	t      rdf.Term    // MIN/MAX's best, SAMPLE's first, SUM/AVG's first non-numeric value
	concat []byte      // GROUP_CONCAT
	seen   *tupleIndex // DISTINCT: the values (rows, for COUNT(DISTINCT *)) folded
}

// aggRef stands in a rewritten expression for aggregate number i: it
// evaluates to that aggregate's value over the group exprEnv names.
type aggRef int

func (aggRef) isExpr()          {}
func (r aggRef) String() string { return string(appendExpr(nil, r)) }

func (ev *evaluator) newGroupFold(q *Query) *groupFold {
	n := len(q.GroupBy)
	f := &groupFold{ev: ev, q: q, from: make([]int, n), to: make([]int, n), groups: newTupleIndex(n, 0),
		key: make([]rdf.ID, n), reps: make([]rdf.ID, 0, 8*ev.sc.width()), conds: slices.Clone(q.OrderBy)}
	for c, gc := range q.GroupBy {
		f.from[c], f.to[c] = ev.sc.slot(gc.Var), ev.sc.slot(groupCondName(c, gc))
	}
	for _, it := range q.Select.Items {
		if it.Expr != nil { // a bare variable is already in the representative
			f.cells = append(f.cells, foldCell{f.ref(it.Expr), ev.sc.slot(it.Var)})
		}
	}
	for i, c := range f.conds {
		if HasAggregate(c.Expr) {
			f.cells = append(f.cells, foldCell{f.ref(c.Expr), ev.sc.slot(hiddenOrderVar(i))})
			f.conds[i].Expr = ExprVar{Name: hiddenOrderVar(i)}
		}
	}
	for _, h := range q.Having {
		f.having = append(f.having, f.ref(h))
	}
	f.accs = make([]aggAcc, 0, 8*len(f.aggs)) // room for a few groups, like reps
	return f
}

// ref copies the expression with each aggregate replaced by an aggRef.
func (f *groupFold) ref(e Expr) Expr {
	refs := func(es []Expr) []Expr {
		out := make([]Expr, len(es))
		for i, x := range es {
			out[i] = f.ref(x)
		}
		return out
	}
	switch x := e.(type) {
	case ExprAggregate:
		i := slices.IndexFunc(f.aggs, func(a aggSpec) bool { return reflect.DeepEqual(a.ExprAggregate, x) })
		if i < 0 {
			i, f.aggs = len(f.aggs), append(f.aggs, aggSpec{ExprAggregate: x, slot: -1, sep: cmp.Or(x.Separator, " ")})
			if v, ok := x.Arg.(ExprVar); ok {
				f.aggs[i].isVar, f.aggs[i].slot = true, f.ev.sc.slot(v.Name)
			}
		}
		return aggRef(i)
	case ExprUnary:
		x.Sub = f.ref(x.Sub)
		return x
	case ExprBinary:
		x.Left, x.Right = f.ref(x.Left), f.ref(x.Right)
		return x
	case ExprCall:
		x.Args = refs(x.Args)
		return x
	case ExprIn:
		x.Left, x.List = f.ref(x.Left), refs(x.List)
		return x
	}
	return e
}

// add folds one solution row, polling for cancellation as joins do.
func (f *groupFold) add(row []rdf.ID) {
	if f.rows++; f.rows%pollEvery == 0 && f.ev.cancel.poll() {
		return
	}
	for c, gc := range f.q.GroupBy {
		switch {
		case gc.Expr != nil:
			v, err := exprEnv{ev: f.ev}.evalExpr(gc.Expr, row)
			if err != nil {
				return // no key, no group
			}
			f.key[c] = f.ev.dict.id(v)
		case f.from[c] >= 0:
			f.key[c] = row[f.from[c]] // 0: grouped under the unbound key
		}
	}
	g, fresh := f.groups.add(f.key)
	if fresh { // the representative carries the group's first row under the key
		f.open(row)
	}
	for i := range f.aggs {
		f.aggs[i].fold(&f.accs[g*len(f.aggs)+i], row, f.ev)
	}
}

// open starts a group: a representative and an accumulator per aggregate.
func (f *groupFold) open(row []rdf.ID) {
	base := len(f.reps)
	f.reps = append(f.reps, row...)
	for c, id := range f.key {
		if f.to[c] >= 0 && id != 0 {
			f.reps[base+f.to[c]] = id
		}
	}
	f.accs = append(f.accs, make([]aggAcc, len(f.aggs))...)
}

// finish returns one extended solution per group HAVING keeps — the
// representative with the cells' values — and the ORDER BY conditions.
// Projection comes later (selectRows), after ORDER BY has seen the extended
// rows. Groups come out sorted by their N-Triples-rendered key: LIMIT without
// ORDER BY, the HIFUN path and stable-sort ties all observe that order.
func (f *groupFold) finish() (*batch, []OrderCond, error) {
	ev, width := f.ev, f.ev.sc.width()
	// A grouped query with no GROUP BY and no rows still yields one group
	// (e.g. SELECT (COUNT(*) AS ?n) over an empty match).
	if len(f.key) == 0 && f.groups.count == 0 {
		f.groups.add(nil)
		f.open(make([]rdf.ID, width))
	}
	// Every group's name goes into one buffer: group g's is
	// names[ends[g]:ends[g+1]].
	order, ends := make([]int, f.groups.count), make([]int, f.groups.count+1)
	var names []byte
	for g := range order {
		order[g] = g
		for _, id := range f.groups.tuple(g) {
			if id != 0 {
				names = appendNT(names, ev.dict.term(id))
			}
			names = append(names, 0)
		}
		ends[g+1] = len(names)
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return bytes.Compare(names[ends[a]:ends[a+1]], names[ends[b]:ends[b+1]])
	})
	work := newBatch(width, f.groups.count)
	env := exprEnv{ev: ev, fold: f}
next:
	for i, g := range order {
		if i%256 == 0 && ev.cancel.poll() {
			return work, nil, ev.cancel.cause()
		}
		env.group = g
		rep := f.reps[g*width : (g+1)*width]
		for _, h := range f.having {
			if ok, err := env.evalBool(h, rep); err != nil || !ok {
				continue next
			}
		}
		work.vals = append(work.vals, rep...)
		out := work.vals[len(work.vals)-width:]
		for _, c := range f.cells {
			// An erroring aggregate (e.g. MIN over an empty group, §18.5)
			// leaves the cell unbound — it must not shadow a same-named
			// representative variable.
			out[c.slot] = 0
			if v, err := env.evalExpr(c.expr, rep); err == nil {
				out[c.slot] = ev.dict.id(v)
			}
		}
	}
	return work, f.conds, nil
}

func groupCondName(i int, gc GroupCond) string {
	if gc.Var != "" {
		return gc.Var
	}
	// Derived group expressions like month(?x2) get a stable readable name.
	if call, ok := gc.Expr.(ExprCall); ok {
		base := strings.ToLower(call.Func)
		if j := strings.LastIndexAny(base, "#/"); j >= 0 {
			base = base[j+1:]
		}
		if len(call.Args) == 1 {
			if v, ok := call.Args[0].(ExprVar); ok {
				return base + "_" + v.Name
			}
		}
		return base
	}
	return ""
}

// fold adds the row's value to the accumulator. Unbound and erroring values
// are skipped (§18.5), and under DISTINCT a value folded before. A plain
// variable is read as an ID and decoded only for a function that needs the
// term; equal terms have equal IDs, so DISTINCT is an ID set.
func (a *aggSpec) fold(acc *aggAcc, row []rdf.ID, ev *evaluator) {
	var key [1]rdf.ID
	var v rdf.Term
	switch {
	case a.Star:
		// COUNT(DISTINCT *) counts distinct solutions (§18.5.1.2): ID rows.
		if !a.Distinct || acc.fresh(row) {
			acc.n++
		}
		return
	case a.isVar:
		if a.slot < 0 || row[a.slot] == 0 {
			return
		}
		key[0] = row[a.slot]
	default:
		t, err := exprEnv{ev: ev}.evalExpr(a.Arg, row)
		if err != nil {
			return
		}
		if v = t; a.Distinct {
			key[0] = ev.dict.id(t)
		}
	}
	if a.Distinct && !acc.fresh(key[:]) {
		return
	}
	if a.isVar && a.Func != "COUNT" {
		v = ev.dict.term(key[0])
	}
	switch a.Func {
	case "COUNT":
		acc.n++
	case "SUM", "AVG":
		f, ok := v.Float()
		if !ok {
			acc.t = cmp.Or(acc.t, v) // the first non-numeric value: an error
			return
		}
		// An all-integer SUM stays in int64 (float64 loses precision past
		// 2^53) until a non-integer value promotes it to xsd:decimal, §18.5.1.3.
		if acc.n++; a.Func == "SUM" && !acc.float && v.Datatype == rdf.XSDInteger {
			if i, okI := v.Int(); okI {
				acc.isum += i
				return
			}
		}
		if !acc.float {
			acc.float, acc.fsum = true, float64(acc.isum)
		}
		acc.fsum += f
	case "MIN", "MAX":
		if acc.n++; acc.n == 1 {
			acc.t = v
			return
		}
		c, err := compareTerms(v, acc.t)
		if err != nil { // fall back to term order for mixed types
			if c = 1; v.Less(acc.t) {
				c = -1
			}
		}
		if (a.Func == "MIN" && c < 0) || (a.Func == "MAX" && c > 0) {
			acc.t = v
		}
	case "SAMPLE":
		if acc.n++; acc.n == 1 {
			acc.t = v
		}
	case "GROUP_CONCAT":
		if acc.n++; acc.n > 1 {
			acc.concat = append(acc.concat, a.sep...)
		}
		acc.concat = append(acc.concat, v.Value...)
	}
}

// fresh reports whether the accumulator meets the tuple for the first time.
func (acc *aggAcc) fresh(tuple []rdf.ID) bool {
	if acc.seen == nil {
		acc.seen = newTupleIndex(len(tuple), 0)
	}
	_, fresh := acc.seen.add(tuple)
	return fresh
}

// result is the aggregate's value over the group. An error leaves the cell
// unbound (aggregate), never fails the query.
func (a *aggSpec) result(acc *aggAcc, d *termDict) (rdf.Term, error) {
	switch {
	case a.Star && a.Func != "COUNT":
		return rdf.Term{}, evalErrf("%s(*) is not defined", a.Func)
	case a.Func == "COUNT":
		return d.integer(int64(acc.n)), nil
	case (a.Func == "SUM" || a.Func == "AVG") && !acc.t.IsZero():
		return rdf.Term{}, evalErrf("%s over non-numeric %s", a.Func, acc.t)
	case a.Func == "SUM" && acc.float:
		return d.number('f', 0, acc.fsum), nil
	case a.Func == "SUM":
		return d.integer(acc.isum), nil
	case a.Func == "AVG" && acc.n == 0:
		return d.integer(0), nil
	case a.Func == "AVG":
		return d.number('f', 0, acc.fsum/float64(acc.n)), nil
	case a.Func == "GROUP_CONCAT":
		return rdf.NewString(string(acc.concat)), nil
	case a.Func != "MIN" && a.Func != "MAX" && a.Func != "SAMPLE":
		return rdf.Term{}, evalErrf("unknown aggregate %s", a.Func)
	case acc.n == 0:
		// Per §18.5 the aggregate errors on an empty group.
		return rdf.Term{}, evalErrf("%s of empty group", a.Func)
	}
	return acc.t, nil
}
